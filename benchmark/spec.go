package main

import (
	"encoding/json"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before it
// counts as a regression (per-layer metrics have none).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

// endToEnd is what a searcher using the system sees; every workload
// reports every one of them. Modeled (virtual-clock) quantities carry
// "modeled" in their name and live in the per-layer set. Timings with
// "ref" in their name, and setup_s (whose name the driver fixes), are
// host wall clock scaled to reference machine speed — divided by how
// much slower than refNominal the harness's reference kernel ran at
// the same time (refkernel.go says why); the per-layer loadgen.wall_*
// metrics and each run's note carry the unscaled values.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_ref_tx_per_s", "tx/s", "higher", 0.20},
	{"latency_p50_ref_ms", "ms", "lower", 0.20},
	{"latency_p90_ref_ms", "ms", "lower", 0.25},
	{"allocs_per_tx", "count", "lower", 0.03},
	{"alloc_kb_per_tx", "KB", "lower", 0.03},
	{"rss_p90_mb", "MB", "lower", 0.25},
}

// perLayer is the ledger of single layers, taken from outside by timing
// calls into public entry points and by the harness's own wrappers.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// R0: the interpreter alone (baseline.Geth).
	{Name: "evm.exec_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "evm.mgas_per_s", Unit: "Mgas/s", Better: "higher"},
	{Name: "evm.gas_per_tx", Unit: "gas", Better: "lower"},
	// R1−R0: slot, HEVM shadow, paged reader.
	{Name: "core.device_overhead_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "core.modeled_device_ms_per_tx", Unit: "ms", Better: "lower"},
	{Name: "hevm.steps_per_tx", Unit: "count", Better: "lower"},
	{Name: "hevm.swap_events_per_tx", Unit: "count", Better: "lower"},
	{Name: "hevm.code_faults_per_tx", Unit: "count", Better: "lower"},
	// Lanes 0 vs N on the same device configuration.
	{Name: "core.lanes_wall_speedup_x", Unit: "x", Better: "higher"},
	{Name: "core.lanes_modeled_speedup_x", Unit: "x", Better: "higher"},
	{Name: "core.lanes_conflicts_per_bundle", Unit: "count", Better: "lower"},
	{Name: "core.lanes_reexecs_per_bundle", Unit: "count", Better: "lower"},
	{Name: "core.lanes_spec_retries_per_bundle", Unit: "count", Better: "lower"},
	{Name: "core.lanes_useful_spec_ratio", Unit: "ratio", Better: "higher"},
	// R2−R1: ORAM client (crypto, stash, eviction), in-process shards.
	{Name: "oram.client_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "oram.accesses_per_tx", Unit: "count", Better: "lower"},
	{Name: "oram.batches_per_tx", Unit: "count", Better: "lower"},
	{Name: "oram.modeled_queries_per_tx", Unit: "count", Better: "lower"},
	{Name: "oram.stash_peak", Unit: "count", Better: "lower"},
	// R3−R2: the ORAM wire, and the shard servers seen from their wrapper.
	{Name: "oram.transport_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "oram.server_busy_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "oram.server_calls_per_tx", Unit: "count", Better: "lower"},
	{Name: "oram.server_paths_per_tx", Unit: "count", Better: "lower"},
	// The ORAM write path (bundles only read): timed Device.Sync.
	{Name: "oram.sync_write_us_per_page", Unit: "us", Better: "lower"},
	{Name: "node.sync_pages", Unit: "count", Better: "lower"},
	// Direct Device.Execute goodput at 2 callers / 1; sampled FreeSlots.
	{Name: "core.device_concurrency_x", Unit: "x", Better: "higher"},
	{Name: "core.slot_busy_ratio", Unit: "ratio", Better: "higher"},
	// R4−R3: Transaction.Sender() recovery once the cached sender is
	// lost on the wire; cross-checked by timing Sender() directly.
	{Name: "types.sender_recover_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "types.sender_direct_us_per_tx", Unit: "us", Better: "lower"},
	// R5−R4: service path — codec, AEAD/signature, mux, socket.
	{Name: "core.service_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "channel.seal_open_us_per_bundle", Unit: "us", Better: "lower"},
	{Name: "channel.wire_bytes_out_per_bundle", Unit: "B", Better: "lower"},
	{Name: "channel.wire_bytes_in_per_bundle", Unit: "B", Better: "lower"},
	{Name: "conn.write_us", Unit: "us", Better: "lower"},
	{Name: "conn.wait_us", Unit: "us", Better: "lower"},
	{Name: "conn.read_us", Unit: "us", Better: "lower"},
	// R6−R5: gateway admission, dispatch and the second service hop.
	{Name: "fleet.gateway_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "fleet.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.queue_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "fleet.rejected", Unit: "count", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	// Handshakes (session_churn): R7−R6 is what a warm visit adds.
	{Name: "session.visit_overhead_us", Unit: "us", Better: "lower"},
	{Name: "session.cold_dial_p50_us", Unit: "us", Better: "lower"},
	{Name: "session.warm_resume_p50_us", Unit: "us", Better: "lower"},
	{Name: "session.handshake_bytes_cold", Unit: "B", Better: "lower"},
	{Name: "session.handshake_bytes_warm", Unit: "B", Better: "lower"},
	{Name: "attest.asym_ops_per_cold_dial", Unit: "count", Better: "lower"},
	{Name: "attest.asym_ops_per_resume", Unit: "count", Better: "lower"},
	// Go runtime over the loaded phase.
	{Name: "runtime.gc_cpu_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles_per_1k_tx", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	// The loaded phase as the wall clock saw it, and how slow the machine
	// ran the reference kernel meanwhile (refkernel.go). The tail is the
	// highest percentile with at least ten samples beyond it in a run of
	// runSeconds (loadgen.tail_percentile says which).
	{Name: "loadgen.ref_slowdown_x", Unit: "x", Better: "lower"},
	{Name: "loadgen.wall_goodput_tx_per_s", Unit: "tx/s", Better: "higher"},
	{Name: "loadgen.wall_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.wall_latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.wall_latency_tail_ms", Unit: "ms", Better: "lower"},
	// Harness validity diagnostics.
	{Name: "loadgen.open_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.open_missed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.tail_percentile", Unit: "%", Better: "higher"},
	{Name: "loadgen.ladder_top_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.ladder_negative_rungs", Unit: "count", Better: "lower"},
	{Name: "loadgen.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// declared names, units and bounds cannot drift from what the program
// emits (`go run ./benchmark -spec > BENCHMARK.json`; a test compares).
func benchmarkJSON() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
