package core

import (
	"hardtape/internal/evm"
	"hardtape/internal/telemetry"
)

// devMetrics holds a device's registered series. The struct is always
// allocated — with telemetry disabled every instrument is nil and each
// record call costs one branch (the telemetry package's nil-receiver
// contract), so the pipeline never checks "is the holder there".
//
// Everything exported here is SP-observable already: bundle counts and
// sizes, wall/virtual latencies, swap-event and page-movement totals,
// ORAM query counts. Nothing carries addresses, calldata, keys, or
// leaf positions.
type devMetrics struct {
	bundlesOK      *telemetry.Counter
	bundlesAborted *telemetry.Counter
	bundlesErr     *telemetry.Counter
	txs            *telemetry.Counter
	gas            *telemetry.Counter

	execWall    *telemetry.Histogram
	execVirtual *telemetry.Histogram

	hevmSteps      *telemetry.Counter
	hevmSwaps      *telemetry.Counter
	hevmEvicted    *telemetry.Counter
	hevmLoaded     *telemetry.Counter
	hevmCodeFaults *telemetry.Counter
	hevmOverflows  *telemetry.Counter
	hevmL2Peak     *telemetry.Gauge

	wsHits   *telemetry.Counter
	wsMisses *telemetry.Counter

	oramQueries *telemetry.Counter

	// Optimistic-scheduler series (Config.Lanes > 1).
	specsTotal    *telemetry.Counter
	conflicts     *telemetry.Counter
	reexecs       *telemetry.Counter
	reexecSeconds *telemetry.Histogram
	laneOccupancy *telemetry.Histogram

	opClasses [evm.NumOpClasses]*telemetry.Counter
}

func newDevMetrics(reg *telemetry.Registry) *devMetrics {
	m := &devMetrics{}
	if reg == nil {
		return m
	}
	m.bundlesOK = reg.Counter("hardtape_device_bundles_total", "bundles pre-executed by outcome", "outcome", "ok")
	m.bundlesAborted = reg.Counter("hardtape_device_bundles_total", "bundles pre-executed by outcome", "outcome", "aborted")
	m.bundlesErr = reg.Counter("hardtape_device_bundles_total", "bundles pre-executed by outcome", "outcome", "error")
	m.txs = reg.Counter("hardtape_device_txs_total", "transactions pre-executed")
	m.gas = reg.Counter("hardtape_device_gas_total", "gas consumed by pre-executed transactions")
	m.execWall = reg.Histogram("hardtape_device_execute_seconds", "wall time of bundle execution on an HEVM slot", nil)
	m.execVirtual = reg.Histogram("hardtape_device_virtual_seconds", "modeled device time per bundle (the Fig. 4 quantity)", nil)
	m.hevmSteps = reg.Counter("hardtape_hevm_steps_total", "EVM instructions retired by the HEVM shadow")
	m.hevmSwaps = reg.Counter("hardtape_hevm_swap_events_total", "L2/L3 swap events (adversary-observable bursts)")
	m.hevmEvicted = reg.Counter("hardtape_hevm_pages_evicted_total", "pages sealed to L3, including eviction noise")
	m.hevmLoaded = reg.Counter("hardtape_hevm_pages_loaded_total", "pages reloaded from L3, including preload noise")
	m.hevmCodeFaults = reg.Counter("hardtape_hevm_code_faults_total", "L1 code-cache misses faulting to L2")
	m.hevmOverflows = reg.Counter("hardtape_hevm_overflows_total", "Memory Overflow aborts")
	m.hevmL2Peak = reg.Gauge("hardtape_hevm_l2_pages_peak", "high-water L2 ring occupancy in pages")
	m.wsHits = reg.Counter("hardtape_wscache_hits_total", "L1 world-state cache hits")
	m.wsMisses = reg.Counter("hardtape_wscache_misses_total", "L1 world-state cache misses")
	m.oramQueries = reg.Counter("hardtape_device_oram_queries_total", "world-state queries answered through the ORAM")
	m.specsTotal = reg.Counter("hardtape_device_speculations_total", "speculative transaction executions on parallel lanes")
	m.conflicts = reg.Counter("hardtape_device_conflicts_total", "commit-time read-set validation failures")
	m.reexecs = reg.Counter("hardtape_device_reexecs_total", "in-order re-executions on the commit lane")
	m.reexecSeconds = reg.Histogram("hardtape_device_reexec_seconds", "modeled device time spent re-executing conflicting transactions", nil)
	m.laneOccupancy = reg.Histogram("hardtape_device_lane_occupancy", "mean speculative-lane utilization per parallel bundle", telemetry.RatioBuckets)
	for i := range m.opClasses {
		// The class label is drawn from the fixed OpClass enum, never
		// from program data.
		//hardtape:telemetry-ok class labels enumerate the closed OpClass set
		m.opClasses[i] = reg.Counter("hardtape_evm_ops_total", "instructions retired by opcode class", "class", evm.OpClass(i).String())
	}
	return m
}

// recordBundle flushes one finished bundle's per-slot state into the
// shared series. Called with the slot still held, before reset, and
// only with a live registry (the fold itself is pure overhead without).
func (m *devMetrics) recordBundle(s *slot, res *BundleResult) {
	st := res.HEVMStats
	m.hevmSteps.Add(st.Steps)
	m.hevmSwaps.Add(uint64(st.SwapEvents))
	m.hevmEvicted.Add(uint64(st.PagesEvicted))
	m.hevmLoaded.Add(uint64(st.PagesLoaded))
	m.hevmCodeFaults.Add(st.CodeFaults)
	if st.Overflowed {
		m.hevmOverflows.Inc()
	}
	m.hevmL2Peak.SetMax(int64(st.L2PagesUsed))
	hits, misses := s.wsCache.HitRate()
	m.wsHits.Add(hits)
	m.wsMisses.Add(misses)
	m.oramQueries.Add(res.ORAMQueries)
	counts := s.opCounts
	for _, l := range s.lanes {
		lh, lm := l.wsCache.HitRate()
		m.wsHits.Add(lh)
		m.wsMisses.Add(lm)
		for i, n := range l.opCounts {
			counts[i] += n
		}
	}
	for i, n := range counts {
		if n != 0 {
			m.opClasses[i].Add(n)
		}
	}
	if p := res.Parallel; p != nil {
		m.specsTotal.Add(uint64(p.Speculations))
		m.conflicts.Add(uint64(p.Conflicts))
		m.reexecs.Add(uint64(p.ReExecs))
		m.reexecSeconds.Observe(p.ReExecTime.Seconds())
		m.laneOccupancy.Observe(p.Occupancy)
	}
	m.execVirtual.Observe(res.VirtualTime.Seconds())
	m.gas.Add(res.GasUsed)
	if res.Aborted != nil {
		m.bundlesAborted.Inc()
	} else {
		m.bundlesOK.Inc()
	}
}

// svcMetrics holds the Service's registered series: session and
// handshake counts, per-stage latencies of the bundle loop, and
// message sizes. Same allocation discipline as devMetrics.
type svcMetrics struct {
	sessions *telemetry.Counter
	// Handshakes split by mode: cold pays attest+DHKE (~80 ms of
	// asymmetric crypto), warm is a ticket redemption plus an AES rekey.
	handshakesCold *telemetry.Counter
	handshakesWarm *telemetry.Counter

	attest *telemetry.Histogram
	dhke   *telemetry.Histogram
	resume *telemetry.Histogram

	// Ticket lifecycle counters, one per event outcome.
	ticketsIssued     *telemetry.Counter
	ticketsRedeemed   *telemetry.Counter
	ticketsExpired    *telemetry.Counter
	ticketsReplayed   *telemetry.Counter
	ticketsTampered   *telemetry.Counter
	ticketsMismatched *telemetry.Counter

	// admissionWait is how long a cold handshake queued at the gate
	// (resumes bypass it by design, so they never appear here).
	admissionWait *telemetry.Histogram

	execute *telemetry.Histogram

	bytesIn  *telemetry.Histogram
	bytesOut *telemetry.Histogram

	bundlesOK  *telemetry.Counter
	bundlesErr *telemetry.Counter
}

func newSvcMetrics(reg *telemetry.Registry) *svcMetrics {
	m := &svcMetrics{}
	if reg == nil {
		return m
	}
	m.sessions = reg.Counter("hardtape_service_sessions_total", "user sessions accepted")
	m.handshakesCold = reg.Counter("hardtape_service_handshakes_total", "handshakes completed by mode", "mode", "cold")
	m.handshakesWarm = reg.Counter("hardtape_service_handshakes_total", "handshakes completed by mode", "mode", "warm")
	m.attest = reg.Histogram("hardtape_service_handshake_seconds", "handshake stage latency", nil, "stage", "attest")
	m.dhke = reg.Histogram("hardtape_service_handshake_seconds", "handshake stage latency", nil, "stage", "dhke")
	m.resume = reg.Histogram("hardtape_service_handshake_seconds", "handshake stage latency", nil, "stage", "resume")
	m.ticketsIssued = reg.Counter("hardtape_service_tickets_total", "resumption tickets by lifecycle event", "event", "issued")
	m.ticketsRedeemed = reg.Counter("hardtape_service_tickets_total", "resumption tickets by lifecycle event", "event", "redeemed")
	m.ticketsExpired = reg.Counter("hardtape_service_tickets_total", "resumption tickets by lifecycle event", "event", "expired")
	m.ticketsReplayed = reg.Counter("hardtape_service_tickets_total", "resumption tickets by lifecycle event", "event", "replayed")
	m.ticketsTampered = reg.Counter("hardtape_service_tickets_total", "resumption tickets by lifecycle event", "event", "tampered")
	m.ticketsMismatched = reg.Counter("hardtape_service_tickets_total", "resumption tickets by lifecycle event", "event", "mismatched")
	m.admissionWait = reg.Histogram("hardtape_service_admission_wait_seconds", "cold-handshake admission queue wait", nil)
	m.execute = reg.Histogram("hardtape_service_bundle_stage_seconds", "bundle pipeline stage latency", nil, "stage", "execute")
	m.bytesIn = reg.Histogram("hardtape_service_request_bytes", "sealed bundle request size", telemetry.SizeBuckets)
	m.bytesOut = reg.Histogram("hardtape_service_response_bytes", "sealed trace response size", telemetry.SizeBuckets)
	m.bundlesOK = reg.Counter("hardtape_service_bundles_total", "bundle requests served by outcome", "outcome", "ok")
	m.bundlesErr = reg.Counter("hardtape_service_bundles_total", "bundle requests served by outcome", "outcome", "error")
	return m
}
