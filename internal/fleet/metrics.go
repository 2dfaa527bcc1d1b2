package fleet

import "hardtape/internal/telemetry"

// gwMetrics is the gateway's registered series. The gateway always
// has a live registry — a private one when Config.Telemetry is nil —
// because these instruments are also the backing store for Stats().
type gwMetrics struct {
	admitted  *telemetry.Counter
	rejected  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	retries   *telemetry.Counter
	queueWait *telemetry.Histogram
}

func newGwMetrics(reg *telemetry.Registry) *gwMetrics {
	return &gwMetrics{
		admitted:  reg.Counter("hardtape_fleet_submissions_total", "bundle submissions by admission outcome", "outcome", "admitted"),
		rejected:  reg.Counter("hardtape_fleet_submissions_total", "bundle submissions by admission outcome", "outcome", "rejected"),
		completed: reg.Counter("hardtape_fleet_bundles_total", "admitted bundles by final outcome", "outcome", "completed"),
		failed:    reg.Counter("hardtape_fleet_bundles_total", "admitted bundles by final outcome", "outcome", "failed"),
		retries:   reg.Counter("hardtape_fleet_retries_total", "bundle failovers to another backend"),
		queueWait: reg.Histogram("hardtape_fleet_queue_wait_seconds", "admission-to-slot wait", nil),
	}
}

// backendMetrics is one backend's slice of the series, labeled by the
// operator-assigned backend name.
type backendMetrics struct {
	dispatched *telemetry.Counter
	failures   *telemetry.Counter
}

// newBackendMetrics registers the per-backend series. The backend
// label is the operator-chosen deployment name from Config — fleet
// topology the SP already knows, never user data.
//
//hardtape:telemetry-ok backend label is the operator-assigned deployment name, not user data
func newBackendMetrics(reg *telemetry.Registry, name string) *backendMetrics {
	return &backendMetrics{
		dispatched: reg.Counter("hardtape_fleet_backend_dispatched_total", "bundles run on this backend", "backend", name),
		failures:   reg.Counter("hardtape_fleet_backend_failures_total", "infrastructure faults on this backend", "backend", name),
	}
}
