// Package fleet pools many HarDTAPE devices behind one gateway — the
// scaling story the paper's exclusive-assignment model (§III) demands:
// each bundle still gets a dedicated HEVM, but the HEVMs come from a
// fleet of devices instead of a single chip. The gateway provides
//
//   - bounded admission: a configurable queue depth and per-bundle
//     deadline, rejecting excess load with ErrOverloaded instead of
//     blocking forever;
//   - weighted least-busy dispatch driven by live free-slot counts
//     (Device.FreeSlots locally, the MuxStatus probe remotely);
//   - health-checked failover: failed backends are drained, probed
//     with exponential backoff, and re-admitted when they recover,
//     while accepted bundles retry on surviving backends;
//   - one report, its registry series: hardtape_fleet_submissions_total
//     and hardtape_fleet_bundles_total by outcome,
//     hardtape_fleet_retries_total, hardtape_fleet_waiting and the
//     hardtape_fleet_queue_wait_seconds histogram, and per backend
//     hardtape_fleet_backend_{healthy,in_flight,dispatched_total,
//     failures_total}. The gauges are the scheduler's own state, not
//     copies of it.
//
// The gateway runs inside the trusted boundary (a scaled-up
// Hypervisor): it terminates user secure channels, hands bundles to
// local devices in process and re-seals them to remote devices over the
// user protocol — see DESIGN.md §3 and §4 for the trust argument.
package fleet

import (
	"errors"
	"fmt"
)

// Typed gateway errors.
var (
	// ErrOverloaded rejects a submission when the admission queue is
	// full. Callers should back off and retry; the bundle was never
	// accepted.
	ErrOverloaded = errors.New("fleet: admission queue full")
	// ErrNoBackends means every backend is unhealthy (or the gateway
	// has none); accepted bundles waiting on a slot get it once their
	// deadline expires.
	ErrNoBackends = errors.New("fleet: no healthy backend")
	// ErrClosed reports submissions after Close.
	ErrClosed = errors.New("fleet: gateway closed")
)

// BackendError wraps infrastructure failures — dead connections,
// killed devices — as opposed to bundle-fault errors (invalid
// transactions, aborts), which are returned to the caller verbatim.
// The gateway fails over on BackendError and only on BackendError.
type BackendError struct {
	Backend string
	Err     error
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("fleet: backend %s: %v", e.Backend, e.Err)
}

func (e *BackendError) Unwrap() error { return e.Err }
