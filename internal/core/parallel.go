package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hardtape/internal/evm"
	"hardtape/internal/hevm"
	"hardtape/internal/simclock"
	"hardtape/internal/state"
	"hardtape/internal/telemetry"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
)

// ParallelStats reports what the optimistic scheduler did for one
// bundle (surfaced on BundleResult and in telemetry).
type ParallelStats struct {
	// Lanes is the number of speculative lanes the bundle ran on.
	Lanes int
	// Speculations counts the speculative executions the committer
	// consumed — one per transaction it reached.
	Speculations int
	// SpecRetries is always 0: a lane speculates each transaction once,
	// against the base snapshot. It stays because the load benchmark's
	// ladder still reads it.
	SpecRetries int
	// Conflicts counts commit-time validation failures.
	Conflicts int
	// ReExecs counts in-order re-executions on the commit lane (one per
	// conflict — re-execution against the committed prefix is final).
	ReExecs int
	// ReExecTime is the modeled device time spent re-executing.
	ReExecTime time.Duration
	// LaneBusy is each lane's modeled busy time up to the end of the
	// last speculation the committer consumed from it.
	LaneBusy []time.Duration
	// Occupancy is mean lane utilization over the parallel phase
	// (1.0 = every lane busy until the last commit).
	Occupancy float64
}

// laneOutcome is one speculated transaction, handed from a worker lane
// to the in-order committer.
type laneOutcome struct {
	res   *evm.ExecutionResult
	trace *tracer.TxTrace
	rs    *state.ReadSet
	ws    *state.WriteSet
	// err is ApplyTransaction's: a validation failure or a halt
	// (finishFailed sorts them).
	err error
	// laneCut is the lane's progress when the speculation finished.
	laneCut
}

// laneCut is what a speculative lane had done in the bundle at one
// point: its lane-relative virtual time, the length of its query log,
// its machine statistics and its op-class counts.
type laneCut struct {
	specEnd time.Duration
	queries int
	hevm    hevm.Stats
	ops     evm.OpClassCounts
}

// cut snapshots the lane's progress so far in the bundle.
func (l *laneState) cut() laneCut {
	return laneCut{specEnd: l.clock.Now(), queries: len(l.queryTimes), hevm: l.machine.Stats(), ops: l.opCounts}
}

// speculation is the optimistic half of one bundle: transaction i runs
// on worker lane i mod N against the bundle's immutable base snapshot
// and is handed to the in-order committer over done[i]. A lane never
// sees a commit, so its outcomes and clock are a function of the bundle
// alone, whatever the goroutines' interleaving.
type speculation struct {
	lanes []*laneState
	// base is the device time the lanes' relative clocks started at.
	base     time.Duration
	outcomes []*laneOutcome
	done     []chan struct{}
	// consumed is, per lane, the last outcome the committer took from
	// it: the end of the lane's share of the bundle.
	consumed []*laneOutcome
	stop     atomic.Bool
	wg       sync.WaitGroup
	stats    *ParallelStats
}

// startSpeculation launches one worker per speculative lane of s.
func (d *Device) startSpeculation(ctx context.Context, s *slot, blockCtx evm.BlockContext, bundle *types.Bundle) *speculation {
	n := len(bundle.Txs)
	sp := &speculation{
		lanes:    s.lanes,
		base:     s.clock.Now(),
		outcomes: make([]*laneOutcome, n),
		done:     make([]chan struct{}, n),
		consumed: make([]*laneOutcome, len(s.lanes)),
		stats:    &ParallelStats{Lanes: len(s.lanes)},
	}
	for i := range sp.done {
		sp.done[i] = make(chan struct{})
	}
	for w, l := range sp.lanes {
		sp.wg.Add(1)
		go func(w int, l *laneState) {
			defer sp.wg.Done()
			laneBase := d.newReader(ctx, l)
			for i := w; i < n; i += len(sp.lanes) {
				if !sp.stop.Load() {
					out := d.specOnce(l, laneBase, nil, blockCtx, bundle.Txs[i])
					out.laneCut = l.cut()
					sp.outcomes[i] = out
				}
				close(sp.done[i])
			}
		}(w, l)
	}
	return sp
}

// finish drains the workers — the slot is reset and recycled as soon as
// executeOn returns, and stopping first keeps the drain short when the
// committer bailed out early — then closes the lane statistics over the
// parallel phase that ended at device time end. Each lane counts only
// up to the last outcome the committer consumed: after an early end,
// what a lane ran past that point depends on the wall clock, so its
// busy time, ORAM queries, machine statistics and op-class counts there
// are dropped.
func (sp *speculation) finish(end time.Duration) {
	sp.stop.Store(true)
	sp.wg.Wait()
	phase := end - sp.base
	for w, l := range sp.lanes {
		var cut laneCut
		if out := sp.consumed[w]; out != nil {
			cut = out.laneCut
		}
		l.queryTimes, l.queryKinds = l.queryTimes[:cut.queries], l.queryKinds[:cut.queries]
		l.specStats, l.opCounts = cut.hevm, cut.ops
		sp.stats.LaneBusy = append(sp.stats.LaneBusy, cut.specEnd)
		if phase > 0 {
			sp.stats.Occupancy += float64(cut.specEnd) / (float64(phase) * float64(len(sp.lanes)))
		}
	}
}

// validated waits for transaction i's speculation and validates its read
// set against the committed buffer on the commit clock: the committer
// can act no earlier than the lane finished, and pays a tag compare per
// read-set entry. It returns nil on a conflict — an earlier transaction
// of the bundle changed something the speculation read from the base.
func (sp *speculation) validated(i int, commit *simclock.Clock, v *state.Versioned) *laneOutcome {
	<-sp.done[i]
	out := sp.outcomes[i]
	sp.consumed[i%len(sp.lanes)] = out
	sp.stats.Speculations++
	commit.AdvanceTo(sp.base + out.specEnd)
	commit.Advance(time.Duration(out.rs.Len()) * simclock.DefaultCalibration().LaneValidatePerRead)
	if !v.Validate(out.rs) {
		sp.stats.Conflicts++
		sp.stats.ReExecs++
		return nil
	}
	return out
}

// runBundle is the bundle executor (DESIGN.md §6), the one routine every
// bundle runs through: the committer walks the bundle in order on the
// slot's commit lane, and each transaction either arrives as a
// speculated outcome whose read set still validates against the
// committed buffer, or executes right here against the committed
// prefix — so the traces are those of in-order execution by
// construction. Speculation workers start only when the slot has lanes
// and the bundle more than one transaction; without them the loop is
// plain sequential execution, result.Parallel stays nil, and no lane
// validate/commit time is charged. ctx carries the bundle's execution
// span, which parents the lane and ORAM spans.
func (d *Device) runBundle(ctx context.Context, s *slot, blockCtx evm.BlockContext, bundle *types.Bundle, result *BundleResult) error {
	v := state.NewVersioned()
	commitReader := d.newReader(ctx, &s.laneState)
	traces := make([]*tracer.TxTrace, 0, len(bundle.Txs))
	defer func() { result.Trace = &tracer.BundleTrace{Txs: traces} }()

	var spec *speculation
	if len(s.lanes) > 0 && len(bundle.Txs) > 1 {
		spec = d.startSpeculation(ctx, s, blockCtx, bundle)
		result.Parallel = spec.stats
		defer func() { spec.finish(s.clock.Now()) }()
	}

	for i, tx := range bundle.Txs {
		var out *laneOutcome
		if spec != nil {
			out = spec.validated(i, s.clock, v)
		}
		if out == nil {
			// Not speculated, or conflicted: execute in order on the
			// commit lane; against the committed prefix the result is
			// final. Conflict re-executions are first-class trace spans:
			// a trace of a contended bundle shows exactly which
			// transactions paid the serial re-run (the tx index is its
			// bundle position — public structure, not content).
			var rsp telemetry.Span
			if spec != nil {
				rsp, _ = d.cfg.Telemetry.StartSpan(ctx, "lane.reexec")
				rsp.AddInt("tx", int64(i))
			}
			start := s.clock.Now()
			out = d.specOnce(&s.laneState, commitReader, v, blockCtx, tx)
			if spec != nil {
				spec.stats.ReExecTime += s.clock.Now() - start
			}
			rsp.End(nil, nil)
		}
		if out.err != nil {
			return finishFailed(result, i, out.err)
		}
		v.Commit(out.ws)
		if spec != nil {
			s.clock.Advance(time.Duration(out.ws.Len()) * simclock.DefaultCalibration().LaneCommitPerWrite)
		}
		traces = append(traces, out.trace)
		result.GasUsed += out.res.GasUsed
	}
	return nil
}

// finishFailed ends the bundle on an authoritative failure — one seen
// against exactly the committed prefix. A validation failure fails the
// bundle naming the transaction; a hardware abort (Memory Overflow, L3
// tamper) ends it with Aborted set, earlier transactions keeping their
// traces; any other halt fails it with ErrAborted.
func finishFailed(result *BundleResult, i int, err error) error {
	var halt *evm.HaltError
	if !errors.As(err, &halt) {
		return fmt.Errorf("core: tx %d: %w", i, err)
	}
	var moe *hevm.MemoryOverflowError
	if errors.As(halt.Err, &moe) || errors.Is(halt.Err, hevm.ErrL3Tampered) {
		result.Aborted = halt.Err
		return nil
	}
	return fmt.Errorf("%w: %v", ErrAborted, halt.Err)
}

// specOnce executes one transaction on the given lane against a fresh
// per-transaction overlay and returns its outcome with read/write sets —
// the one place a transaction meets the interpreter, so the one place
// hooks are wired. Speculative lanes and the commit lane both run
// through here: a lane passes a nil v and reads the base snapshot
// alone, and its outcome is validated afterwards; the commit lane reads
// the committed prefix through v. On a failure the read set decides
// whether it is authoritative (in-order execution would have hit it
// too) or an artifact of a stale view; the write set is never
// committed.
func (d *Device) specOnce(l *laneState, laneBase state.Reader, v *state.Versioned,
	blockCtx evm.BlockContext, tx *types.Transaction) *laneOutcome {
	txo := state.NewTxOverlay(v, laneBase)
	e := evm.New(blockCtx, txo)
	ttr := tracer.New(d.cfg.CaptureSteps)
	e.Hooks = evm.CombineHooks(ttr.Hooks(), l.machine.Hooks())
	if d.cfg.Telemetry != nil {
		// Op-class sampling rides the interpreter's hook fast path:
		// installed only here, so disabled telemetry re-uses the
		// existing hook-presence flags at zero extra cost.
		e.Hooks = evm.CombineHooks(e.Hooks, l.opCounts.Hooks())
	}
	ttr.BeginTx(tx.Hash())
	res, err := e.ApplyTransaction(tx)
	out := &laneOutcome{res: res, err: err}
	out.rs, out.ws = txo.Finish()
	if err == nil {
		out.trace = ttr.EndTx(res)
	}
	return out
}
