package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/channel"
	"hardtape/internal/core"
	"hardtape/internal/types"
)

// rung is one public entry point of the ladder. exec runs bundle i,
// returns how long the call itself took, and verifies the result
// against the oracle off the clock.
type rung struct {
	name string
	// layer is the per-layer metric the rung's delta to the rung below
	// feeds (ladder rungs only).
	layer   string
	exec    func(i int) (time.Duration, error)
	samples []float64 // µs per bundle
}

// Share of a traced run's --seconds given to each part; the ladder
// gets the rest. The open-loop phase only runs where the workload has
// one.
const (
	loadedShare      = 0.25
	openShare        = 0.25
	concurrencyShare = 0.10
)

// tracedRun is the per-layer run: a loaded phase for the counters that
// need contention (slot occupancy, gateway queue, GC), the open-loop
// phase where the workload has one, a direct-device concurrency probe,
// then one client driving the bundle list sequentially up the ladder of
// entry points. Each layer's cost is the difference between adjacent
// rung medians.
func tracedRun(cfg runConfig, t *topology, bundles []*types.Bundle, o *oracle, rng *rand.Rand) (*runResult, error) {
	spec := t.spec
	m := make(map[string]float64, len(perLayer))
	res := &runResult{Correct: true, Metrics: make(map[string]metricValue)}
	total := time.Duration(cfg.Seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }

	used, err := loadedPhases(cfg, t, bundles, o, rng, share, m, res)
	if err != nil {
		return nil, err
	}

	// Direct Device.Execute goodput at two callers over one.
	one := directGoodput(t.dev, bundles, 1, share(concurrencyShare/2))
	two := directGoodput(t.dev, bundles, 2, share(concurrencyShare/2))
	if one > 0 {
		m["core.device_concurrency_x"] = two / one
	}

	if err := climbLadder(cfg, t, bundles, o, total-share(used+concurrencyShare), m, res); err != nil {
		return nil, err
	}
	if spec.Churn {
		if err := handshakeProbe(t, m); err != nil {
			res.fail(err)
		}
	}
	for _, def := range perLayer {
		res.Metrics[def.Name] = metricValue{m[def.Name], def.Unit}
	}
	return res, nil
}

// fail counts one failed operation of a traced run and notes the first.
func (r *runResult) fail(err error) {
	r.Attempted++
	r.Failed++
	if r.Correct {
		r.Correct = false
		r.notes = append(r.notes, "first failure: "+err.Error())
	}
}

// addPhase folds a load phase's outcome into the run's.
func (r *runResult) addPhase(p phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.failed > 0 && r.Correct {
		r.Correct = false
		r.notes = append(r.notes, "first failure: "+p.firstFailure)
	}
}

// loadedPhases runs the workload's closed loop under the slot sampler
// and the runtime counters, then the open loop where there is one. It
// returns the share of the run's time it used.
func loadedPhases(cfg runConfig, t *topology, bundles []*types.Bundle, o *oracle, rng *rand.Rand, share func(float64) time.Duration, m map[string]float64, res *runResult) (float64, error) {
	spec := t.spec
	var sessions []*session
	if !spec.Churn {
		var err error
		if sessions, err = dialSessions(t, t.frontAddr, spec.Clients); err != nil {
			return 0, err
		}
		defer closeSessions(sessions)
	}
	warm := loadPhase(spec, t, sessions, bundles, o, cfg.WarmUp)
	if warm.failed > 0 {
		return 0, fmt.Errorf("%s: warm-up: %d of %d requests failed: %s",
			spec.Name, warm.failed, warm.attempted, warm.firstFailure)
	}

	// Device.FreeSlots polled from outside while the load runs.
	slots := float64(t.dev.SlotCount())
	busy := startSampler(500*time.Microsecond, func() float64 { return 1 - float64(t.dev.FreeSlots())/slots })
	rt0 := readRuntime()
	ph := loadPhase(spec, t, sessions, bundles, o, share(loadedShare))
	rt1 := readRuntime()
	m["core.slot_busy_ratio"] = mean(busy.stop())
	res.addPhase(ph)

	if ph.attempted > 0 {
		m["loadgen.failed_ratio"] = float64(ph.failed) / float64(ph.attempted)
	}
	lat := sortedCopy(inUnits(ph.latencies, time.Millisecond))
	m["loadgen.ref_slowdown_x"] = slowdown(ph.ref)
	m["loadgen.wall_goodput_tx_per_s"] = ph.goodput
	m["loadgen.wall_latency_p50_ms"] = percentile(lat, 50)
	m["loadgen.wall_latency_p90_ms"] = percentile(lat, 90)
	m["loadgen.tail_percentile"] = tailPercentile(len(lat))
	m["loadgen.wall_latency_tail_ms"] = percentile(lat, tailPercentile(len(lat)))
	if cpu := (rt1.totalCPU - rt1.idleCPU) - (rt0.totalCPU - rt0.idleCPU); cpu > 0 {
		m["runtime.gc_cpu_ratio"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	if ph.txs > 0 {
		m["runtime.gc_cycles_per_1k_tx"] = float64(rt1.gcCycles-rt0.gcCycles) * 1000 / float64(ph.txs)
		m["core.modeled_device_ms_per_tx"] = ms(ph.virtual) / float64(ph.txs)
	}
	m["runtime.heap_live_mb"] = float64(rt1.heapLive) / (1 << 20)
	if len(ph.coldDials) > 0 {
		m["session.cold_dial_p50_us"] = median(inUnits(ph.coldDials, time.Microsecond))
	}
	if len(ph.warmResumes) > 0 {
		m["session.warm_resume_p50_us"] = median(inUnits(ph.warmResumes, time.Microsecond))
	}
	if t.gateway != nil {
		gs := t.gateway.Stats()
		m["fleet.queue_wait_p50_us"] = us(gs.QueueWaitP50)
		m["fleet.queue_wait_p99_us"] = us(gs.QueueWaitP99)
		m["fleet.rejected"] = float64(gs.Rejected)
		m["fleet.retries"] = float64(gs.Retries)
	}

	used := loadedShare
	if spec.OpenRate > 0 {
		used += openShare
		res.addPhase(openLoopPhase(spec, sessions, bundles, o, rng, share(openShare), m, res))
	}
	return used, nil
}

// climbLadder drives the bundle list up the rungs, all rungs interleaved
// per bundle so drift hits them equally, for at least budget and at
// least cfg.MinRungOps passes, and derives the per-layer costs.
func climbLadder(cfg runConfig, t *topology, bundles []*types.Bundle, o *oracle, budget time.Duration, m map[string]float64, res *runResult) error {
	ladder, side, closeLadder, err := buildLadder(t, bundles, o)
	if err != nil {
		return err
	}
	defer closeLadder()

	all := append(append([]*rung(nil), ladder...), side.rungs...)
	passes := 0
	for start := time.Now(); passes < cfg.MinRungOps || time.Since(start) < budget; passes++ {
		i := passes % len(bundles)
		for _, r := range all {
			d, err := r.exec(i)
			if err != nil {
				res.fail(fmt.Errorf("%s: %w", r.name, err))
				continue
			}
			res.Attempted++
			r.samples = append(r.samples, us(d))
		}
	}
	m["loadgen.samples"] = float64(passes)

	txsPerBundle := float64(txCount(bundles)) / float64(len(bundles))
	medians := make([]float64, len(ladder))
	for k, r := range ladder {
		if len(r.samples) == 0 {
			return fmt.Errorf("%s: ladder rung %s produced no sample", t.spec.Name, r.name)
		}
		medians[k] = median(r.samples)
	}
	deltas := ladderDeltas(medians)
	for k, r := range ladder {
		m[r.layer] = deltas[k] / txsPerBundle
	}
	m["loadgen.ladder_top_us"] = medians[len(medians)-1]
	neg := negativeRungs(deltas)
	m["loadgen.ladder_negative_rungs"] = float64(neg)
	if neg > 0 {
		res.notes = append(res.notes, fmt.Sprintf("INVALID: %d ladder rung(s) cost less than -5%% of the top rung", neg))
	}
	res.notes = append(res.notes, "ladder (median us/bundle, delta): "+describeLadder(ladder, medians, deltas))

	side.fill(m, txsPerBundle, float64(passes))
	if side.syncPages > 0 {
		// The ORAM write path: Sync was timed at set-up, and the pages it
		// wrote are the accesses of a twin that had served no bundle yet.
		m["node.sync_pages"] = side.syncPages
		m["oram.sync_write_us_per_page"] = us(t.syncDur) / side.syncPages
	}
	return side.traced.finish(cfg, t.spec.Name, m, res)
}

// openLoopPhase sends the bundle list on a seeded Poisson schedule at
// the workload's fixed rate, whatever the replies do — what independent
// searchers produce — and fills the open-loop diagnostics.
func openLoopPhase(spec *workloadSpec, sessions []*session, bundles []*types.Bundle, o *oracle, rng *rand.Rand, dur time.Duration, m map[string]float64, res *runResult) phaseResult {
	schedule := arrivalSchedule(rng, spec.OpenRate, dur)
	ph := openLoop(sessions, bundles, o, schedule, time.Duration(openLoopLimitMs*float64(time.Millisecond)))
	if len(ph.lags) == 0 {
		return ph
	}
	lat := sortedCopy(inUnits(ph.latencies, time.Millisecond))
	m["loadgen.open_latency_p50_ms"] = percentile(lat, 50)
	m["loadgen.open_latency_p90_ms"] = percentile(lat, 90)
	m["loadgen.open_latency_p99_ms"] = percentile(lat, 99)
	m["loadgen.open_lag_p99_ms"] = percentile(sortedCopy(inUnits(ph.lags, time.Millisecond)), 99)
	m["loadgen.open_missed_ratio"] = float64(ph.missed) / float64(len(ph.lags))
	// A generator that cannot keep its schedule runs late on average;
	// a late tail alone is scheduling noise that latency-from-due-time
	// already charges to the requests.
	meanLag, meanGap := mean(inUnits(ph.lags, time.Millisecond)), 1000/spec.OpenRate
	if meanLag > 0.10*meanGap {
		res.notes = append(res.notes, fmt.Sprintf(
			"INVALID: open-loop generator ran %.2f ms late on average, over 10%% of the mean interval %.2f ms", meanLag, meanGap))
	}
	return ph
}

func describeLadder(ladder []*rung, medians, deltas []float64) string {
	s := ""
	for k, r := range ladder {
		if k > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %.0f (%+.0f)", r.name, medians[k], deltas[k])
	}
	return s
}

// sideData is what the rungs collect besides their durations.
type sideData struct {
	// rungs are timed alongside the ladder but are not part of it (the
	// lanes-off twin, the traced top rung, direct Sender() timing).
	rungs []*rung

	// R0: gas executed and the time it took.
	gas    float64
	r0Time time.Duration
	// R1: BundleResult.HEVMStats sums over r1Ops bundles.
	hevmSteps, swapEvents, codeFaults, r1Ops float64
	// R2: Device.ORAMStats deltas over r2Ops bundles; syncPages is the
	// twin's access count right after Sync.
	oramAccesses, oramBatches, oramQueries, stashPeak, r2Ops float64
	syncPages                                                float64
	// R3: shard server wrapper deltas over r3Ops bundles.
	server serverCounters
	r3Ops  float64
	// Lanes on (a ladder rung) against the lanes-off twin.
	lanesOn, lanesOff                             *rung
	modeledOn, modeledOff                         time.Duration
	conflicts, reexecs, specRetries, speculations float64
	parallelBundles, parallelTxs                  float64
	senderDirect                                  *rung
	traced                                        *tracedRung
}

// fill derives the per-layer counters from the collected side data.
func (s *sideData) fill(m map[string]float64, txsPerBundle, ops float64) {
	perTx := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / (n * txsPerBundle)
	}
	m["evm.gas_per_tx"] = perTx(s.gas, ops)
	if s.r0Time > 0 {
		m["evm.mgas_per_s"] = s.gas / 1e6 / s.r0Time.Seconds()
	}
	m["hevm.steps_per_tx"] = perTx(s.hevmSteps, s.r1Ops)
	m["hevm.swap_events_per_tx"] = perTx(s.swapEvents, s.r1Ops)
	m["hevm.code_faults_per_tx"] = perTx(s.codeFaults, s.r1Ops)
	m["oram.accesses_per_tx"] = perTx(s.oramAccesses, s.r2Ops)
	m["oram.batches_per_tx"] = perTx(s.oramBatches, s.r2Ops)
	m["oram.modeled_queries_per_tx"] = perTx(s.oramQueries, s.r2Ops)
	m["oram.stash_peak"] = s.stashPeak
	m["oram.server_busy_us_per_tx"] = perTx(us(s.server.busy), s.r3Ops)
	m["oram.server_calls_per_tx"] = perTx(float64(s.server.calls), s.r3Ops)
	m["oram.server_paths_per_tx"] = perTx(float64(s.server.paths), s.r3Ops)
	if s.senderDirect != nil && len(s.senderDirect.samples) > 0 {
		m["types.sender_direct_us_per_tx"] = median(s.senderDirect.samples) / txsPerBundle
	}
	if s.lanesOff != nil && len(s.lanesOff.samples) > 0 && len(s.lanesOn.samples) > 0 {
		m["core.lanes_wall_speedup_x"] = median(s.lanesOff.samples) / median(s.lanesOn.samples)
		if s.modeledOn > 0 {
			m["core.lanes_modeled_speedup_x"] = float64(s.modeledOff) / float64(s.modeledOn)
		}
		if s.parallelBundles > 0 {
			m["core.lanes_conflicts_per_bundle"] = s.conflicts / s.parallelBundles
			m["core.lanes_reexecs_per_bundle"] = s.reexecs / s.parallelBundles
			m["core.lanes_spec_retries_per_bundle"] = s.specRetries / s.parallelBundles
		}
		if s.speculations > 0 {
			// Useful outcomes / attempts: transactions whose speculation
			// committed as is, over all speculative executions.
			m["core.lanes_useful_spec_ratio"] = (s.parallelTxs - s.reexecs) / s.speculations
		}
	}
}

// buildLadder wires the workload's rungs, bottom first, plus the side
// rungs. The returned func releases the sessions it dialed.
func buildLadder(t *topology, bundles []*types.Bundle, o *oracle) ([]*rung, *sideData, func(), error) {
	spec := t.spec
	side := &sideData{}
	var (
		ladder  []*rung
		closers []func()
	)
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	add := func(r *rung) *rung { ladder = append(ladder, r); return r }

	// R0: the interpreter and tracer alone.
	add(&rung{name: "R0.geth", layer: "evm.exec_us_per_tx", exec: func(i int) (time.Duration, error) {
		start := time.Now()
		ref, err := t.geth.ExecuteBundle(bundles[i])
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		side.gas += float64(ref.GasUsed)
		side.r0Time += d
		return d, o.check(i, ref.Trace, "")
	}})

	// direct returns a rung calling Device.Execute; after runs on the
	// result off the clock.
	direct := func(name, layer string, dev *core.Device, strip bool, after func(*core.BundleResult)) *rung {
		return &rung{name: name, layer: layer, exec: func(i int) (time.Duration, error) {
			b := bundles[i]
			if strip {
				b = stripSenders(b)
			}
			start := time.Now()
			res, err := dev.Execute(b)
			d := time.Since(start)
			if err != nil {
				return d, err
			}
			if after != nil {
				after(res)
			}
			abort := ""
			if res.Aborted != nil {
				abort = res.Aborted.Error()
			}
			return d, o.check(i, res.Trace, abort)
		}}
	}
	hevmStats := func(res *core.BundleResult) {
		side.hevmSteps += float64(res.HEVMStats.Steps)
		side.swapEvents += float64(res.HEVMStats.SwapEvents)
		side.codeFaults += float64(res.HEVMStats.CodeFaults)
		side.r1Ops++
	}

	if spec.Shards > 0 {
		// R1: the device shell without any protection feature.
		raw, err := t.twin(core.ConfigRaw, spec.Lanes)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("raw twin: %w", err)
		}
		add(direct("R1.device_shell", "core.device_overhead_us_per_tx", raw, false, hevmStats))

		// R2: the workload's features over in-process shard servers.
		mem, err := t.twin(spec.Features, spec.Lanes)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("in-process ORAM twin: %w", err)
		}
		side.syncPages = float64(mem.ORAMStats().Accesses)
		last := mem.ORAMStats()
		add(direct("R2.oram_in_process", "oram.client_us_per_tx", mem, false, func(res *core.BundleResult) {
			st := mem.ORAMStats()
			side.oramAccesses += float64(st.Accesses - last.Accesses)
			side.oramBatches += float64(st.Batches - last.Batches)
			side.stashPeak = float64(st.MaxStash)
			side.oramQueries += float64(res.ORAMQueries)
			side.r2Ops++
			last = st
		}))

		// R3: the workload's own device — remote shards over TCP.
		r3 := direct("R3.oram_remote", "oram.transport_us_per_tx", t.dev, false, nil)
		inner := r3.exec
		r3.exec = func(i int) (time.Duration, error) {
			before := snapshotServers(t.oramServers)
			d, err := inner(i)
			delta := snapshotServers(t.oramServers).sub(before)
			side.server.busy += delta.busy
			side.server.calls += delta.calls
			side.server.paths += delta.paths
			side.r3Ops++
			return d, err
		}
		add(r3)
	} else {
		// Without ORAM the workload's own device is the shell rung (its
		// Encrypt feature only advances the virtual clock).
		add(direct("R1.device_shell", "core.device_overhead_us_per_tx", t.dev, false, func(res *core.BundleResult) {
			hevmStats(res)
			if p := res.Parallel; p != nil {
				side.modeledOn += res.VirtualTime
				side.conflicts += float64(p.Conflicts)
				side.reexecs += float64(p.ReExecs)
				side.specRetries += float64(p.SpecRetries)
				side.speculations += float64(p.Speculations)
				side.parallelBundles++
				side.parallelTxs += float64(len(res.Trace.Txs))
			}
		}))
		if spec.Lanes > 1 {
			// Same device without lanes: the sequential executor.
			seq, err := t.twin(spec.Features, 0)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("sequential twin: %w", err)
			}
			side.lanesOn = ladder[len(ladder)-1]
			side.lanesOff = direct("side.lanes_off", "", seq, false, func(res *core.BundleResult) {
				side.modeledOff += res.VirtualTime
			})
			side.rungs = append(side.rungs, side.lanesOff)
		}
	}

	// R4: as a bundle arrives off the wire — no memoized senders.
	add(direct("R4.sender_stripped", "types.sender_recover_us_per_tx", t.dev, true, nil))
	side.senderDirect = &rung{name: "side.sender_direct", exec: func(i int) (time.Duration, error) {
		b := stripSenders(bundles[i])
		start := time.Now()
		for _, tx := range b.Txs {
			if _, err := tx.Sender(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}}
	side.rungs = append(side.rungs, side.senderDirect)

	// remote returns a rung calling Client.PreExecute on a session.
	remote := func(name, layer string, s *session) *rung {
		return &rung{name: name, layer: layer, exec: func(i int) (time.Duration, error) {
			start := time.Now()
			res, err := s.client.PreExecute(bundles[i])
			d := time.Since(start)
			if err != nil {
				return d, err
			}
			return d, o.check(i, res.Trace, res.AbortReason)
		}}
	}

	// R5: the device service over TCP.
	devAddr, err := t.serveDevice()
	if err != nil {
		return nil, nil, nil, err
	}
	s5, err := t.dial(devAddr, nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dial device service: %w", err)
	}
	closers = append(closers, s5.Close)
	top, topAddr := add(remote("R5.service", "core.service_us_per_tx", s5)), devAddr

	// R6: through the gateway.
	if t.gateway != nil {
		s6, err := t.dial(t.frontAddr, nil)
		if err != nil {
			closeAll()
			return nil, nil, nil, fmt.Errorf("dial gateway service: %w", err)
		}
		closers = append(closers, s6.Close)
		top, topAddr = add(remote("R6.gateway", "fleet.gateway_us_per_tx", s6)), t.frontAddr
	}

	// Traced twin of the top persistent-session rung: same call, with
	// the conn wrapper recording and the shard servers logging.
	rec := &connRecorder{}
	st, err := t.dial(topAddr, rec)
	if err != nil {
		closeAll()
		return nil, nil, nil, fmt.Errorf("dial traced session: %w", err)
	}
	closers = append(closers, st.Close)
	side.traced = &tracedRung{t: t, session: st, rec: rec, log: &intervalLog{}, bundles: bundles, o: o, untraced: top}
	side.rungs = append(side.rungs, &rung{name: "side.traced_top", exec: side.traced.exec})

	// R7: a whole warm visit — connect, resume, one bundle, close.
	if spec.Churn {
		seed, err := t.dial(t.frontAddr, nil)
		if err != nil {
			closeAll()
			return nil, nil, nil, fmt.Errorf("dial for first ticket: %w", err)
		}
		ticket := seed.client.Ticket()
		seed.Close()
		add(&rung{name: "R7.visit", layer: "session.visit_overhead_us", exec: func(i int) (time.Duration, error) {
			start := time.Now()
			s, err := t.resume(t.frontAddr, ticket, nil)
			if err != nil {
				return 0, fmt.Errorf("resume: %w", err)
			}
			defer s.Close()
			res, err := s.client.PreExecute(bundles[i])
			d := time.Since(start)
			if err != nil {
				return d, err
			}
			ticket = s.client.Ticket()
			return d, o.check(i, res.Trace, res.AbortReason)
		}})
	}
	return ladder, side, closeAll, nil
}

// tracedRung repeats the top rung's call with span recording on.
type tracedRung struct {
	t        *topology
	session  *session
	rec      *connRecorder
	log      *intervalLog
	bundles  []*types.Bundle
	o        *oracle
	untraced *rung

	requests [][]span
	nextID   int
	bytesOut []float64
	bytesIn  []float64
}

func (tr *tracedRung) exec(i int) (time.Duration, error) {
	tr.rec.take()
	for _, s := range tr.t.oramServers {
		s.log.Store(tr.log)
	}
	start := time.Now()
	res, err := tr.session.client.PreExecute(tr.bundles[i])
	end := time.Now()
	for _, s := range tr.t.oramServers {
		s.log.Store(nil)
	}
	act := tr.rec.take()
	server := tr.log.take()
	if err != nil {
		return end.Sub(start), err
	}
	spans := requestSpans(tr.nextID+1, start, end, act, server)
	tr.nextID += len(spans)
	fillSelfTimes(spans)
	tr.requests = append(tr.requests, spans)
	tr.bytesOut = append(tr.bytesOut, float64(act.bytesOut))
	tr.bytesIn = append(tr.bytesIn, float64(act.bytesIn))
	return end.Sub(start), tr.o.check(i, res.Trace, res.AbortReason)
}

// finish turns the recorded requests into metrics and writes the
// Chrome trace.
func (tr *tracedRung) finish(cfg runConfig, workload string, m map[string]float64, res *runResult) error {
	if len(tr.requests) == 0 {
		return nil
	}
	self := selfTimesByName(tr.requests)
	for _, name := range []string{"conn.write", "conn.wait", "conn.read"} {
		m[name+"_us"] = median(inUnits(self[name], time.Microsecond))
	}
	out, in := median(tr.bytesOut), median(tr.bytesIn)
	m["channel.wire_bytes_out_per_bundle"] = out
	m["channel.wire_bytes_in_per_bundle"] = in
	so, err := sealOpenCost(int(out), int(in), tr.t.sign())
	if err != nil {
		return err
	}
	m["channel.seal_open_us_per_bundle"] = so
	var traced []float64
	for _, spans := range tr.requests {
		traced = append(traced, us(spans[0].duration()))
	}
	if base := median(tr.untraced.samples); base > 0 {
		m["loadgen.trace_overhead_ratio"] = median(traced) / base
	}
	if cfg.OutDir != "" {
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-seed%d.json", workload, cfg.Seed))
		if err := writeChromeTrace(path, tr.requests); err != nil {
			return err
		}
		res.notes = append(res.notes, "chrome trace: "+path)
	}
	return nil
}

// sealOpenCost times SecureChannel.Seal and Open on messages of the
// observed request and reply sizes: one client→service→client exchange,
// both ends. sign adds the per-message ECDSA layer, as the session had.
func sealOpenCost(outBytes, inBytes int, sign bool) (float64, error) {
	var key [32]byte
	if _, err := crand.Read(key[:]); err != nil {
		return 0, err
	}
	client, err := channel.NewSecureChannel(key, 1)
	if err != nil {
		return 0, err
	}
	service, err := channel.NewSecureChannel(key, 1)
	if err != nil {
		return 0, err
	}
	if sign {
		ck, err := ecdsa.GenerateKey(elliptic.P256(), crand.Reader)
		if err != nil {
			return 0, err
		}
		sk, err := ecdsa.GenerateKey(elliptic.P256(), crand.Reader)
		if err != nil {
			return 0, err
		}
		client.EnableSigning(ck, &sk.PublicKey)
		service.EnableSigning(sk, &ck.PublicKey)
	}
	// Sealed sizes include the 32-byte header and the 16-byte GCM tag;
	// the frame adds 4 bytes of length.
	payload := func(wire int) []byte {
		n := wire - channel.HeaderSize - 16 - 4
		if n < 1 {
			n = 1
		}
		return make([]byte, n)
	}
	req, reply := payload(outBytes), payload(inBytes)
	const rounds = 31
	samples := make([]float64, 0, rounds)
	for k := 0; k < rounds; k++ {
		start := time.Now()
		sealed, err := client.Seal(channel.MsgMux, req)
		if err != nil {
			return 0, err
		}
		if _, _, err := service.Open(sealed); err != nil {
			return 0, err
		}
		if sealed, err = service.Seal(channel.MsgMuxReply, reply); err != nil {
			return 0, err
		}
		if _, _, err := client.Open(sealed); err != nil {
			return 0, err
		}
		samples = append(samples, us(time.Since(start)))
	}
	return median(samples), nil
}

// directGoodput drives Device.Execute from n callers for dur and
// returns bundles per second (memoized senders: the device alone).
func directGoodput(dev *core.Device, bundles []*types.Bundle, callers int, dur time.Duration) float64 {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		count int
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 0
			for k := c; time.Now().Before(deadline); k += callers {
				if _, err := dev.Execute(bundles[k%len(bundles)]); err == nil {
					n++
				}
			}
			mu.Lock()
			count += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return float64(count) / time.Since(start).Seconds()
}

// runtimeSnapshot is the part of runtime/metrics the ledger uses.
type runtimeSnapshot struct {
	gcCPU, totalCPU, idleCPU float64
	gcCycles                 uint64
	heapLive                 uint64
}

func readRuntime() runtimeSnapshot {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(samples)
	f := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return 0
	}
	u := func(s metrics.Sample) uint64 {
		if s.Value.Kind() == metrics.KindUint64 {
			return s.Value.Uint64()
		}
		return 0
	}
	return runtimeSnapshot{
		gcCPU: f(samples[0]), totalCPU: f(samples[1]), idleCPU: f(samples[2]),
		gcCycles: u(samples[3]), heapLive: u(samples[4]),
	}
}

// handshakeProbe dials cold and resumes warm a few times, one at a
// time, under the conn wrapper: asymmetric operations (both ends, they
// share the process-wide counter) and bytes per handshake.
func handshakeProbe(t *topology, m map[string]float64) error {
	const rounds = 8
	var coldOps, warmOps, coldBytes, warmBytes []float64
	for k := 0; k < rounds; k++ {
		rec := &connRecorder{}
		ops := attest.AsymOps()
		s, err := t.dial(t.frontAddr, rec)
		if err != nil {
			return fmt.Errorf("handshake probe dial: %w", err)
		}
		coldOps = append(coldOps, float64(attest.AsymOps()-ops))
		act := rec.take()
		coldBytes = append(coldBytes, float64(act.bytesOut+act.bytesIn))
		ticket := s.client.Ticket()
		s.Close()

		rec = &connRecorder{}
		ops = attest.AsymOps()
		var w *session
		if w, err = t.resume(t.frontAddr, ticket, rec); err != nil {
			return fmt.Errorf("handshake probe resume: %w", err)
		}
		warmOps = append(warmOps, float64(attest.AsymOps()-ops))
		act = rec.take()
		warmBytes = append(warmBytes, float64(act.bytesOut+act.bytesIn))
		w.Close()
	}
	m["attest.asym_ops_per_cold_dial"] = median(coldOps)
	m["attest.asym_ops_per_resume"] = median(warmOps)
	m["session.handshake_bytes_cold"] = median(coldBytes)
	m["session.handshake_bytes_warm"] = median(warmBytes)
	return nil
}
