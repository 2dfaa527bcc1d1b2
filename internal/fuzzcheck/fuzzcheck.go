// Package fuzzcheck holds the allocation invariant shared by the fuzz
// targets over decoders that read service-provider bytes: besides
// never panicking and returning either a typed error or a valid value,
// a decoder must not allocate more than its input justifies, so a
// hostile peer cannot buy memory with a few length bytes.
package fuzzcheck

import (
	"runtime"
	"testing"
)

// Slack covers fixed per-call costs (decoder scratch, buffered
// readers, runtime noise) that do not grow with the input.
const Slack = 64 << 10

// Allocs runs fn and fails t if it allocated more than limit bytes.
// Targets pass Slack plus what their input size justifies.
func Allocs(t testing.TB, limit uint64, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
		t.Fatalf("allocated %d bytes, limit %d", grew, limit)
	}
}
