package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hardtape/internal/evm"
	"hardtape/internal/hevm"
	"hardtape/internal/state"
	"hardtape/internal/telemetry"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// laneConfigs is one single-core config of features per lane count,
// each capturing steps when steps is set.
func laneConfigs(features Features, steps bool, lanes ...int) []Config {
	cfgs := make([]Config, len(lanes))
	for i, n := range lanes {
		cfgs[i] = config(features, 1, n)
		cfgs[i].CaptureSteps = steps
	}
	return cfgs
}

// executeAll runs b on the oracle and on every device of r, checks each
// device against the oracle, and the devices against each other
// byte for byte. It returns the results in device order.
func (r *rig) executeAll(t *testing.T, name string, b *types.Bundle) []*BundleResult {
	t.Helper()
	want := r.oracle(t, b)
	out := make([]*BundleResult, len(r.devices))
	for i, d := range r.devices {
		var err error
		if out[i], err = d.Execute(b); err != nil {
			t.Fatalf("%s: %d lanes: %v", name, d.cfg.Lanes, err)
		}
		assertParity(t, fmt.Sprintf("%s/%d lanes", name, d.cfg.Lanes), want, out[i], false)
		if i > 0 {
			assertParity(t, name, out[0], out[i], true)
		}
	}
	return out
}

// nonceChainBundle is n transactions from ONE sender at consecutive
// nonces — every speculation past the first either fails its nonce
// check or reads a stale nonce, so the scheduler must fall back to
// in-order re-execution for the whole chain.
func nonceChainBundle(t testing.TB, w *workload.World, n int) *types.Bundle {
	t.Helper()
	sender := w.EOAs[0]
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		to := types.BytesToAddress([]byte{0xab, byte(i)})
		tx, err := w.SignedTxAt(sender, uint64(i), &to, uint64(10+i), nil, 40_000)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return &types.Bundle{Txs: txs}
}

// uniformBundle is n equal-cost, pairwise conflict-free arithmetic-loop
// calls from distinct senders to one compute-only contract — the
// balanced workload for modeled lane-speedup assertions.
func uniformBundle(t testing.TB, w *workload.World, n int) *types.Bundle {
	t.Helper()
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		to := w.ArithLoop
		tx, err := w.SignedTxAt(w.EOAs[i], 0, &to, 0, workload.CalldataUint(2000), 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return &types.Bundle{Txs: txs}
}

// TestParallelTraceParity is the executor's hard correctness bar: at
// every lane count in {0, 1, 4}, with and without step capture, traces
// equal the baseline.Geth oracle and are byte-identical across lane
// counts — on the high-conflict MEV scenario, write-after-write on one
// slot, reads racing aborted speculations, and a nonce chain that
// re-executes every transaction.
func TestParallelTraceParity(t *testing.T) {
	for _, steps := range []bool{false, true} {
		r := newRig(t, laneWorld, laneConfigs(ConfigFull, steps, 0, 1, 4)...)

		bundles := map[string]*types.Bundle{}
		mev, err := r.world.MEVBundle(12, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		bundles["mev-hot"] = mev
		mixed, err := r.world.MEVBundle(12, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		bundles["mev-mixed"] = mixed
		free, err := r.world.ConflictFreeBundle(12)
		if err != nil {
			t.Fatal(err)
		}
		bundles["conflict-free"] = free
		bundles["nonce-chain"] = nonceChainBundle(t, r.world, 6)

		for name, b := range bundles {
			name = fmt.Sprintf("%s/steps=%v", name, steps)
			res := r.executeAll(t, name, b)
			if res[0].Parallel != nil || res[1].Parallel != nil {
				t.Fatalf("%s: scheduler stats without speculation", name)
			}
			if res[2].Parallel == nil {
				t.Fatalf("%s: 4-lane run reported no scheduler stats", name)
			}
		}
	}
}

// TestParallelEvalSetParity sweeps the generator's archetype mix as
// single- and multi-tx bundles through the oracle and lane counts
// {0, 1, 4}, with and without step capture.
func TestParallelEvalSetParity(t *testing.T) {
	for _, steps := range []bool{false, true} {
		r := newRig(t, laneWorld, laneConfigs(ConfigFull, steps, 0, 1, 4)...)
		r.world.SyncNonces(r.chain.State())
		for i := 0; i < 6; i++ {
			var txs []*types.Transaction
			for j := 0; j < 1+i%4; j++ {
				tx, _, err := r.world.GenerateTx()
				if err != nil {
					t.Fatal(err)
				}
				txs = append(txs, tx)
			}
			r.executeAll(t, fmt.Sprintf("eval-%d/steps=%v", i, steps), &types.Bundle{Txs: txs})
			// The generator threads nonces across bundles; re-anchor so the
			// next bundle stays valid against the pinned canonical state.
			r.world.SyncNonces(r.chain.State())
		}
	}
}

// TestParallelSchedulerStats checks the scheduler's accounting
// identities and that the high-conflict workload actually produces
// conflict-driven re-executions.
func TestParallelSchedulerStats(t *testing.T) {
	r := newRig(t, laneWorld, config(ConfigFull, 1, 4))
	mev, err := r.world.MEVBundle(12, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.device.Execute(mev)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Parallel
	if p == nil {
		t.Fatal("no scheduler stats")
	}
	if p.Lanes != 4 {
		t.Fatalf("lanes = %d", p.Lanes)
	}
	if p.Conflicts != p.ReExecs {
		t.Fatalf("conflicts %d != re-execs %d (every conflict re-executes exactly once)", p.Conflicts, p.ReExecs)
	}
	if p.Speculations != len(mev.Txs) {
		t.Fatalf("speculations %d != txs %d (each transaction is speculated once)", p.Speculations, len(mev.Txs))
	}
	if p.Conflicts == 0 {
		t.Fatal("12 transactions hammering one pool produced no conflict")
	}
	if p.ReExecs > 0 && p.ReExecTime <= 0 {
		t.Fatal("re-executions charged no virtual time")
	}
	if len(p.LaneBusy) != 4 {
		t.Fatalf("lane busy entries = %d", len(p.LaneBusy))
	}
	if p.Occupancy <= 0 || p.Occupancy > 1 {
		t.Fatalf("occupancy = %v", p.Occupancy)
	}
	if res.VirtualTime <= 0 {
		t.Fatal("no virtual time")
	}
}

// TestParallelWriteAfterWriteSameSlot pins the write-after-write edge
// case end to end: every transaction writes the SAME storage slots
// (one DEX pool's reserves), so each commit must supersede the
// previous write, in bundle order, with traces identical to the
// oracle and the 0-lane device. (The state-layer half of this edge case is
// TestVersionedWriteAfterWrite.)
func TestParallelWriteAfterWriteSameSlot(t *testing.T) {
	r := newRig(t, laneWorld, laneConfigs(ConfigFull, true, 0, 2)...)
	for _, n := range []int{2, 6} {
		b, err := r.world.MEVBundle(n, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		r.executeAll(t, fmt.Sprintf("waw-%d", n), b)
	}
}

// TestParallelReadAfterRevertedWrite: transaction 0 starts the same
// swap but runs out of gas mid-execution, so its speculative storage
// writes are discarded; transaction 1 swaps the same pool and must
// read the ORIGINAL reserves, not the aborted transaction's. Parity
// with the oracle and the 0-lane device proves no leakage. (The
// state-layer half is TestVersionedAbortedWritesInvisible.)
func TestParallelReadAfterRevertedWrite(t *testing.T) {
	r := newRig(t, laneWorld, laneConfigs(ConfigFull, true, 0, 2)...)
	pool := r.world.DEXes[0]
	oog, err := r.world.SignedTxAt(r.world.EOAs[0], 0, &pool, 0,
		workload.CalldataSwap(5000), 30_000)
	if err != nil {
		t.Fatal(err)
	}
	swap, err := r.world.SignedTxAt(r.world.EOAs[1], 0, &pool, 0,
		workload.CalldataSwap(6000), 300_000)
	if err != nil {
		t.Fatal(err)
	}
	b := &types.Bundle{Txs: []*types.Transaction{oog, swap}}
	r.executeAll(t, "reverted-write", b)
}

// TestParallelConflictReexecutesOnce walks one transaction through the
// scheduler's conflict path deterministically: its speculation reads the
// pool's base reserves, a competing swap commits first, so validation
// fails and the committer re-executes it against the committed prefix —
// and that re-execution is final: it validates and commits, and no
// further commit can come between it and its own. Uses the same
// specOnce / Validate / Commit primitives the lanes and the committer
// run. (The state-layer ladder is TestVersionedDoubleConflict.)
func TestParallelConflictReexecutesOnce(t *testing.T) {
	r := newRig(t, laneWorld, config(ConfigRaw, 1, 2))
	d := r.device
	s := <-d.slots
	s.reset()
	defer func() { s.reset(); d.slots <- s }()
	head := d.chain.Head()
	blockCtx := workload.NewBlockContext(&head.Header)
	blockCtx.BlockHash = d.chain.BlockHash

	pool := r.world.DEXes[0]
	mkSwap := func(i int) *types.Transaction {
		tx, err := r.world.SignedTxAt(r.world.EOAs[i], 0, &pool, 0,
			workload.CalldataSwap(uint64(1000+i)), 300_000)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	v := state.NewVersioned()
	laneReader := d.newReader(context.Background(), s.lanes[0])
	commitReader := d.newReader(context.Background(), &s.laneState)
	run := func(l *laneState, reader state.Reader, v *state.Versioned, i int) *laneOutcome {
		out := d.specOnce(l, reader, v, blockCtx, mkSwap(i))
		if out.err != nil {
			t.Fatalf("swap %d failed: %v", i, out.err)
		}
		return out
	}

	spec := run(s.lanes[0], laneReader, nil, 1) // the lane: base reserves only
	v.Commit(run(&s.laneState, commitReader, v, 0).ws)
	if v.Validate(spec.rs) {
		t.Fatal("conflict not detected after a competing swap committed")
	}
	final := run(&s.laneState, commitReader, v, 1) // the commit-lane re-execution
	if !v.Validate(final.rs) {
		t.Fatal("re-execution against the committed prefix must validate")
	}
	if reflect.DeepEqual(spec.trace, final.trace) {
		t.Fatal("re-execution against the committed prefix traced the same as the stale speculation")
	}
	v.Commit(final.ws)
}

// modeledRun is everything a bundle result models, compared whole
// across runs of one bundle.
type modeledRun struct {
	virtual    time.Duration
	parallel   ParallelStats
	hevm       hevm.Stats
	queryTimes []time.Duration
	queryKinds []byte
	gas        uint64
	aborted    string
	trace      *tracer.BundleTrace
}

func modeledOf(res *BundleResult) modeledRun {
	m := modeledRun{virtual: res.VirtualTime, hevm: res.HEVMStats, queryTimes: res.QueryTimes, queryKinds: res.QueryKinds,
		gas: res.GasUsed, trace: res.Trace}
	if res.Parallel != nil {
		m.parallel = *res.Parallel
	}
	if res.Aborted != nil {
		m.aborted = res.Aborted.Error()
	}
	return m
}

// assertModelRepeats executes b runs times, alternating GOMAXPROCS
// between 1 and 2, each time on a fresh one-slot device with a fixed
// model seed — so every run starts from the same generator state — and
// requires one modeled result from all of them. It returns that result.
func (r *rig) assertModelRepeats(t *testing.T, name string, features Features, lanes, runs int, b *types.Bundle) modeledRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first modeledRun
	for run := 0; run < runs; run++ {
		procs := 1 + run%2
		runtime.GOMAXPROCS(procs)
		cfg := config(features, 1, lanes)
		cfg.Seed = 1
		res, err := r.newDevice(t, cfg).Execute(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := modeledOf(res)
		if run == 0 {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Fatalf("%s: run %d (GOMAXPROCS %d) models differently from run 0:\n%+v\n%+v",
				name, run, procs, first.parallel, got.parallel)
		}
	}
	return first
}

// TestParallelModelRepeats pins that speculation is a function of the
// bundle and the seed: lanes read only the bundle's base snapshot, so
// neither the goroutines' interleaving nor GOMAXPROCS reaches the
// virtual clock, the scheduler statistics, the ORAM query log or the
// traces.
func TestParallelModelRepeats(t *testing.T) {
	r := newRig(t, laneWorld)
	for _, rate := range []float64{0.25, 0.5, 1.0} {
		b, err := r.world.MEVBundle(8, rate)
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{2, 4, 8} {
			r.assertModelRepeats(t, fmt.Sprintf("-raw/%d lanes @ %.2f", lanes, rate), ConfigRaw, lanes, 10, b)
		}
	}
	b, err := r.world.MEVBundle(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m := r.assertModelRepeats(t, "-full/4 lanes @ 0.50", ConfigFull, 4, 10, b); len(m.queryTimes) == 0 {
		t.Fatal("-full run issued no ORAM queries")
	}
}

// TestParallelAbortStatsRepeat: when a hardware abort ends a speculated
// bundle early, the lanes may already have run transactions past it —
// how many depends on the wall clock. The statistics count only what
// the committer consumed — lane busy time, queries, HEVMStats and the
// op-class counts telemetry exports — so the result repeats and
// occupancy stays a fraction of the parallel phase.
func TestParallelAbortStatsRepeat(t *testing.T) {
	cfg := config(ConfigRaw, 1, 4)
	cfg.Telemetry = telemetry.NewRegistry()
	r := newRig(t, laneWorld, cfg)
	dev := r.device
	// opCounts reads the op-class series the device registered.
	opCounts := func() (c evm.OpClassCounts) {
		for i := range c {
			c[i] = cfg.Telemetry.Counter("hardtape_evm_ops_total", "", "class", evm.OpClass(i).String()).Value()
		}
		return c
	}
	loop := uniformBundle(t, r.world, 12).Txs
	hog := r.world.MemoryHog
	overflow, err := r.world.SignedTxAt(r.world.EOAs[1], 0, &hog, 0, workload.CalldataUint(600_000), 25_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b := &types.Bundle{Txs: append([]*types.Transaction{loop[0], overflow}, loop[2:]...)}
	var first modeledRun
	var firstOps evm.OpClassCounts
	for run := 0; run < 20; run++ {
		before := opCounts()
		res, err := dev.Execute(b)
		if err != nil {
			t.Fatal(err)
		}
		ops := opCounts()
		for i := range ops {
			ops[i] -= before[i]
		}
		if res.Aborted == nil || res.Parallel == nil {
			t.Fatalf("run %d: aborted=%v parallel=%v", run, res.Aborted, res.Parallel)
		}
		if occ := res.Parallel.Occupancy; occ > 1 {
			t.Fatalf("run %d: occupancy %.2f > 1 (lane busy %v)", run, occ, res.Parallel.LaneBusy)
		}
		got := modeledOf(res)
		if run == 0 {
			first, firstOps = got, ops
		} else if !reflect.DeepEqual(first, got) || ops != firstOps {
			t.Fatalf("run %d differs from run 0:\n%+v %+v %v\n%+v %+v %v", run,
				first.parallel, first.hevm, firstOps, got.parallel, got.hevm, ops)
		}
	}
}

// TestParallelModeledSpeedup is the acceptance bar: on a conflict-free
// bundle, 4 lanes must model at least a 3x virtual-time speedup over
// sequential execution on the same workload.
func TestParallelModeledSpeedup(t *testing.T) {
	r := newRig(t, laneWorld, config(ConfigRaw, 1, 0), config(ConfigRaw, 1, 4))
	b := uniformBundle(t, r.world, 16)
	seq, err := r.devices[0].Execute(b)
	if err != nil {
		t.Fatal(err)
	}
	par, err := r.devices[1].Execute(b)
	if err != nil {
		t.Fatal(err)
	}
	if par.Parallel.Conflicts != 0 {
		t.Fatalf("conflict-free bundle reported %d conflicts", par.Parallel.Conflicts)
	}
	speedup := float64(seq.VirtualTime) / float64(par.VirtualTime)
	if speedup < 3.0 {
		t.Fatalf("modeled speedup %.2fx < 3x (seq=%v par=%v)", speedup, seq.VirtualTime, par.VirtualTime)
	}
	t.Logf("modeled speedup at 4 lanes: %.2fx (seq=%v par=%v occupancy=%.2f)",
		speedup, seq.VirtualTime, par.VirtualTime, par.Parallel.Occupancy)
}

// TestParallelConcurrentBundles drives the scheduler from several
// goroutines at once (multiple slots, shared ORAM client) — the -race
// target for the scheduler's hand-offs. Every result must equal the
// oracle and the 0-lane device's.
func TestParallelConcurrentBundles(t *testing.T) {
	r := newRig(t, laneWorld, config(ConfigFull, 1, 0), config(ConfigFull, 2, 3))
	mev, err := r.world.MEVBundle(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	free, err := r.world.ConflictFreeBundle(10)
	if err != nil {
		t.Fatal(err)
	}
	r.hammer(t, r.devices[1], 4, mev, free)
}

// hammer runs bundles[i%len] from `workers` goroutines at once on dev
// and checks every result against the oracle and, byte for byte,
// against r.device — the 0-lane single-slot device — run alone.
func (r *rig) hammer(t *testing.T, dev *Device, workers int, bundles ...*types.Bundle) {
	t.Helper()
	oracle := make([]*BundleResult, len(bundles))
	alone := make([]*BundleResult, len(bundles))
	for i, b := range bundles {
		oracle[i] = r.oracle(t, b)
		var err error
		if alone[i], err = r.device.Execute(b); err != nil {
			t.Fatal(err)
		}
		assertParity(t, fmt.Sprintf("bundle %d alone", i), oracle[i], alone[i], false)
	}
	results := make([]*BundleResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = dev.Execute(bundles[w%len(bundles)])
		}(w)
	}
	wg.Wait()
	for w, res := range results {
		if errs[w] != nil {
			t.Fatalf("run %d: %v", w, errs[w])
		}
		name := fmt.Sprintf("run %d", w)
		assertParity(t, name, oracle[w%len(bundles)], res, false)
		assertParity(t, name, alone[w%len(bundles)], res, true)
	}
}

// TestExecutorConcurrentSlotsNoLanes is the -race target for the
// commit-lane-only schedule on an ORAM device: with no lanes, three
// slots still interleave on the shared ORAM client, one tree access at
// a time, so 1-tx and 4-tx bundles running at once must each produce
// the oracle's traces.
func TestExecutorConcurrentSlotsNoLanes(t *testing.T) {
	r := newRig(t, laneWorld, config(ConfigFull, 1, 0), config(ConfigFull, 3, 0))
	mev, err := r.world.MEVBundle(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := r.world.ConflictFreeBundle(1)
	if err != nil {
		t.Fatal(err)
	}
	r.hammer(t, r.devices[1], 9, single, mev, nonceChainBundle(t, r.world, 4))
}

// TestExecutorCommitLaneModelUnchanged pins the modeled cost of the
// commit-lane-only schedule to the dedicated sequential executor it
// replaced: a multi-tx bundle on a Lanes: 0 ORAM device must issue the
// same ORAM queries at the same virtual time. The constants were
// captured by running exactly these bundles through Device.Execute at
// the parent commit (d62e8fc, whose runTxs held one bundle-wide state.Overlay)
// — what keeps them is the lane's bundle-scoped account memo: without
// it the same-sender chain re-fetches its sender once per transaction.
// Both rows are prefetcher-free (no contract code over ORAM), so they
// are deterministic.
func TestExecutorCommitLaneModelUnchanged(t *testing.T) {
	full := newRig(t, laneWorld, config(ConfigFull, 1, 0))
	eso := newRig(t, laneWorld, config(ConfigESO, 1, 0))
	mev, err := eso.world.MEVBundle(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		dev     *Device
		bundle  *types.Bundle
		queries uint64
		virtual time.Duration
	}{
		{"full/same-sender-chain", full.device, nonceChainBundle(t, full.world, 4), 6, 92172000},
		{"eso/mev-4", eso.device, mev, 22, 124996920},
	} {
		res, err := c.dev.Execute(c.bundle)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.ORAMQueries != c.queries || len(res.QueryTimes) != int(c.queries) || res.VirtualTime != c.virtual {
			t.Errorf("%s: %d queries (%d timestamps) in %d ns, parent commit: %d queries in %d ns", c.name,
				res.ORAMQueries, len(res.QueryTimes), res.VirtualTime, c.queries, c.virtual)
		}
		if res.Parallel != nil {
			t.Errorf("%s: scheduler stats without speculation", c.name)
		}
	}
}

// TestExecutorFailureSurfaces pins how failures leave the executor at
// lane counts 0 and 4: a validation failure fails the bundle naming the
// transaction, a hardware abort (Memory Overflow, L3 tamper) ends it
// with Aborted set to the cause and earlier traces kept, any other halt
// out of the query path fails it with ErrAborted, and a panic that is
// not a halt — a bug — is not recovered at all.
func TestExecutorFailureSurfaces(t *testing.T) {
	r := newRig(t, laneWorld, config(ConfigRaw, 1, 0), config(ConfigRaw, 1, 4))
	ok := nonceChainBundle(t, r.world, 1).Txs[0]
	to := types.BytesToAddress([]byte{0xcd})
	badNonce, err := r.world.SignedTxAt(r.world.EOAs[1], 7, &to, 1, nil, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	hog := r.world.MemoryHog
	overflow, err := r.world.SignedTxAt(r.world.EOAs[2], 0, &hog, 0, workload.CalldataUint(600_000), 25_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range r.devices {
		_, err := dev.Execute(&types.Bundle{Txs: []*types.Transaction{ok, badNonce}})
		if err == nil || !strings.Contains(err.Error(), "core: tx 1:") {
			t.Errorf("%d lanes: bad nonce: %v", dev.cfg.Lanes, err)
		}
		res, err := dev.Execute(&types.Bundle{Txs: []*types.Transaction{ok, overflow, ok}})
		if err != nil {
			t.Fatalf("%d lanes: overflow: %v", dev.cfg.Lanes, err)
		}
		moe, isMOE := res.Aborted.(*hevm.MemoryOverflowError)
		if !isMOE || !strings.HasPrefix(moe.Error(), "hevm: memory overflow: frame ") ||
			len(res.Trace.Txs) != 1 || res.GasUsed != res.Trace.Txs[0].GasUsed {
			t.Errorf("%d lanes: overflow: aborted=%v traces=%d gas=%d", dev.cfg.Lanes, res.Aborted, len(res.Trace.Txs), res.GasUsed)
		}
	}

	d := r.device
	s := <-d.slots
	defer func() { s.reset(); d.slots <- s }()
	blockCtx := workload.NewBlockContext(&d.chain.Head().Header)
	run := func(fault func()) *laneOutcome {
		return d.specOnce(&s.laneState, faultyReader{fault}, state.NewVersioned(), blockCtx, ok)
	}
	moe := &hevm.MemoryOverflowError{FrameBytes: 1 << 20, Limit: 512 << 10}
	for _, c := range []struct {
		cause, aborted error
		fails          string
	}{
		{errors.New("backend down"), nil, "core: bundle aborted: backend down"},
		{hevm.ErrL3Tampered, hevm.ErrL3Tampered, ""},
		{moe, moe, ""},
	} {
		out := run(func() { evm.Halt(c.cause) })
		result := &BundleResult{}
		err := finishFailed(result, 0, out.err)
		if (err == nil) != (c.fails == "") || err != nil && (!errors.Is(err, ErrAborted) || err.Error() != c.fails) {
			t.Errorf("halt %v: bundle error %v, want %q", c.cause, err, c.fails)
		}
		if result.Aborted != c.aborted {
			t.Errorf("halt %v: Aborted = %v, want %v", c.cause, result.Aborted, c.aborted)
		}
	}
	// A bug panics out of specOnce with its own value, unrecovered.
	if r := recoverFrom(func() { run(func() { panic("index out of range") }) }); r != "index out of range" {
		t.Errorf("string panic: specOnce let through %v", r)
	}
	var none []int
	r0 := recoverFrom(func() { run(func() { _ = none[len(none)] }) })
	if _, isRuntime := r0.(runtime.Error); !isRuntime {
		t.Errorf("runtime error: specOnce let through %v", r0)
	}
}

// recoverFrom runs fn and returns what it panicked with, or nil.
func recoverFrom(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// faultyReader is a world-state backend whose every query runs fault.
type faultyReader struct{ fault func() }

func (f faultyReader) Account(types.Address) (*types.Account, bool) { f.fault(); return nil, false }
func (f faultyReader) Storage(types.Address, types.Hash) types.Hash { f.fault(); return types.Hash{} }
func (f faultyReader) Code(types.Hash) []byte                       { f.fault(); return nil }
