package fleet

import "hardtape/internal/telemetry"

// gwMetrics is the gateway's registered series. The gateway always
// has a live registry — a private one when Config.Telemetry is nil —
// because these series are its record of what it did and, for the
// gauges, the state it schedules by.
type gwMetrics struct {
	admitted  *telemetry.Counter
	rejected  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	retries   *telemetry.Counter
	// waiting counts bundles admitted but not yet holding a slot.
	waiting   *telemetry.Gauge
	queueWait *telemetry.Histogram
}

func newGwMetrics(reg *telemetry.Registry) *gwMetrics {
	return &gwMetrics{
		admitted:  reg.Counter("hardtape_fleet_submissions_total", "bundle submissions by admission outcome", "outcome", "admitted"),
		rejected:  reg.Counter("hardtape_fleet_submissions_total", "bundle submissions by admission outcome", "outcome", "rejected"),
		completed: reg.Counter("hardtape_fleet_bundles_total", "admitted bundles by final outcome", "outcome", "completed"),
		failed:    reg.Counter("hardtape_fleet_bundles_total", "admitted bundles by final outcome", "outcome", "failed"),
		retries:   reg.Counter("hardtape_fleet_retries_total", "bundle failovers to another backend"),
		waiting:   reg.Gauge("hardtape_fleet_waiting", "admitted bundles waiting for a slot"),
		queueWait: reg.Histogram("hardtape_fleet_queue_wait_seconds", "admission-to-slot wait", nil),
	}
}

// backendMetrics is one backend's slice of the series, labeled by the
// operator-assigned backend name.
type backendMetrics struct {
	dispatched *telemetry.Counter
	failures   *telemetry.Counter
	// inflight counts bundles executing on the backend; healthy is 1
	// while the gateway may dispatch to it and 0 while it is drained.
	inflight *telemetry.Gauge
	healthy  *telemetry.Gauge
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
		inflight:   reg.Gauge("hardtape_fleet_backend_in_flight", "bundles executing on this backend", "backend", name),
		healthy:    reg.Gauge("hardtape_fleet_backend_healthy", "1 while the gateway dispatches to this backend, 0 while it is drained", "backend", name),
	}
}
