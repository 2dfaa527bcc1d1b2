package oram

import (
	"context"
	"errors"
	"testing"

	"hardtape/internal/telemetry"
)

// TestBatchSpanTimesTracesAndFails pins what the one span in
// tree.accessBatch does in each state: every round feeds the latency
// series; when the round's ctx carries a trace, the round — a single
// access as much as a batch — is also an "oram.batch" node whose trace
// id lands on its histogram's exemplar and whose Err carries an injected
// server fault (and nobody else's does); untraced rounds are timed but
// never traced.
func TestBatchSpanTimesTracesAndFails(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.EnableTracing("device", 8)
	defer reg.FlightRecorder().Close()
	mem, err := NewMemServer(128)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyServer{Server: mem}
	cli, err := NewClient([]Server{flaky}, testKey(), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	single := reg.Histogram("hardtape_oram_access_seconds", "", nil, "kind", "single")
	batch := reg.Histogram("hardtape_oram_access_seconds", "", nil, "kind", "batch")
	ids := []BlockID{1, 2, 3, 4}

	// Untraced ctx: timed only.
	if err := writeOne(cli, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := readMany(context.Background(), cli, ids); err != nil {
		t.Fatal(err)
	}
	if single.Count() != 1 || batch.Count() != 1 {
		t.Fatalf("untraced rounds timed %d single / %d batch, want 1 / 1", single.Count(), batch.Count())
	}
	if st := reg.FlightRecorder().Stats(); st.Pending != 0 || st.Kept != 0 {
		t.Fatalf("untraced rounds reached the flight recorder: %+v", st)
	}

	// Traced ctx: one clean batch, one clean single access, one failing
	// batch.
	root, ctx := reg.StartSpan(reg.ContinueTrace(context.Background(), telemetry.SpanContext{}), "test.bundle")
	if _, err := readMany(ctx, cli, ids); err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(ctx, cli, 1); err != nil {
		t.Fatal(err)
	}
	flaky.failWrite = flaky.writes + 1
	if _, err := readMany(ctx, cli, ids); !errors.Is(err, errInjected) {
		t.Fatalf("faulting batch returned %v", err)
	}
	root.End(nil, nil)

	trace := reg.FlightRecorder().Lookup(root.Context().Trace)
	if trace == nil {
		t.Fatal("error trace not kept")
	}
	var clean, failed int
	for _, s := range trace.Spans {
		switch {
		case s.Name == "oram.batch" && !s.Err:
			clean++
		case s.Name == "oram.batch":
			failed++
		case s.Name != "test.bundle" || s.Err:
			t.Errorf("unexpected span %s (failed %v)", s.Name, s.Err)
		}
	}
	if clean != 2 || failed != 1 || len(trace.Spans) != 4 {
		t.Fatalf("got %d clean + %d failed oram.batch of %d spans, want 2 + 1 of 4", clean, failed, len(trace.Spans))
	}
	if single.Count() != 2 || batch.Count() != 3 {
		t.Fatalf("rounds timed %d single / %d batch, want 2 / 3", single.Count(), batch.Count())
	}
	for name, h := range map[string]*telemetry.Histogram{"batch": batch, "single": single} {
		stamped := false
		for i := 0; i <= len(telemetry.DurationBuckets); i++ {
			if ex := h.BucketExemplar(i); ex != nil && ex.Trace == root.Context().Trace {
				stamped = true
			}
		}
		if !stamped {
			t.Fatalf("traced %s round did not stamp the latency exemplar with its trace id", name)
		}
	}
}
