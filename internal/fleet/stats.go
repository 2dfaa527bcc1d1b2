package fleet

import "time"

// Stats is the part of the gateway's series that the benchmark
// harness reads after a run. Everything else — admission and outcome
// counts, waiting bundles, and each backend's health, in-flight,
// dispatch and failure series — is read from the registry.
type Stats struct {
	Rejected uint64
	Retries  uint64
	// Queue-wait quantiles, interpolated from the admission-to-slot
	// wait histogram.
	QueueWaitP50 time.Duration
	QueueWaitP99 time.Duration
}

// Stats reads the snapshot from the gateway's series.
func (g *Gateway) Stats() Stats {
	return Stats{
		Rejected:     g.tm.rejected.Value(),
		Retries:      g.tm.retries.Value(),
		QueueWaitP50: g.tm.queueWait.QuantileDuration(0.50),
		QueueWaitP99: g.tm.queueWait.QuantileDuration(0.99),
	}
}
