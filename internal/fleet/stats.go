package fleet

import (
	"time"

	"hardtape/internal/hevm"
)

// Stats is a point-in-time snapshot of the gateway. The struct is
// wire-stable: PR 5 moved its backing store from private aggregate
// structs onto the shared telemetry series, but every field keeps its
// name, type, and meaning.
type Stats struct {
	// Capacity/FreeSlots describe the fleet's HEVM pool (free counts
	// only healthy backends).
	Capacity  int
	FreeSlots int
	// Waiting is bundles admitted but not yet holding a slot; InFlight
	// is bundles executing on a backend.
	Waiting  int
	InFlight int
	// Admission counters (monotonic).
	Admitted  uint64
	Rejected  uint64
	Completed uint64
	Failed    uint64
	Retries   uint64
	// Queue-wait quantiles, interpolated from the admission-to-slot
	// wait histogram.
	QueueWaitP50 time.Duration
	QueueWaitP99 time.Duration
	Backends     []BackendStats
}

// BackendStats is the per-backend slice of the snapshot.
type BackendStats struct {
	Name    string
	Healthy bool
	// Capacity/FreeSlots/InFlight mirror the scheduler's live view.
	Capacity  int
	FreeSlots int
	InFlight  int
	// Dispatched counts bundles this backend ran (including
	// bundle-fault errors); Failures counts infrastructure faults.
	Dispatched uint64
	Failures   uint64
	LastError  string
	// HEVM aggregates per-bundle machine stats over this backend's
	// completed bundles.
	HEVM hevm.Stats
}

// Stats snapshots the gateway from its telemetry series plus the
// mutex-guarded live scheduling state.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Stats{
		Waiting:      g.waiting,
		Admitted:     g.tm.admitted.Value(),
		Rejected:     g.tm.rejected.Value(),
		Completed:    g.tm.completed.Value(),
		Failed:       g.tm.failed.Value(),
		Retries:      g.tm.retries.Value(),
		QueueWaitP50: g.tm.queueWait.QuantileDuration(0.50),
		QueueWaitP99: g.tm.queueWait.QuantileDuration(0.99),
	}
	for _, bs := range g.backends {
		b := BackendStats{
			Name:       bs.b.Name(),
			Healthy:    bs.healthy,
			Capacity:   bs.b.Capacity(),
			FreeSlots:  bs.effectiveFree(),
			InFlight:   bs.inflight,
			Dispatched: bs.m.dispatched.Value(),
			Failures:   bs.m.failures.Value(),
			HEVM:       bs.hevm,
		}
		if bs.lastErr != nil {
			b.LastError = bs.lastErr.Error()
		}
		st.Capacity += b.Capacity
		st.InFlight += bs.inflight
		if bs.healthy {
			st.FreeSlots += b.FreeSlots
		}
		st.Backends = append(st.Backends, b)
	}
	return st
}
