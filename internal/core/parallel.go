package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hardtape/internal/evm"
	"hardtape/internal/simclock"
	"hardtape/internal/state"
	"hardtape/internal/telemetry"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
)

// maxSpecAttempts bounds how often a lane re-speculates a transaction
// whose read set went stale before handing it to the committer. The
// committer's in-order re-execution is the unconditional backstop, so
// one retry is enough to absorb the common "raced one commit" case
// without burning lane time on hot conflicts.
const maxSpecAttempts = 2

// ParallelStats reports what the optimistic scheduler did for one
// bundle (surfaced on BundleResult and in telemetry).
type ParallelStats struct {
	// Lanes is the number of speculative lanes the bundle ran on.
	Lanes int
	// Speculations counts speculative executions on the lanes,
	// including worker-side retries.
	Speculations int
	// SpecRetries counts worker-side re-speculations after an advisory
	// validation failed.
	SpecRetries int
	// Conflicts counts commit-time validation failures.
	Conflicts int
	// ReExecs counts in-order re-executions on the commit lane (one per
	// conflict — re-execution against the committed prefix is final).
	ReExecs int
	// ReExecTime is the modeled device time spent re-executing.
	ReExecTime time.Duration
	// MaxTxExecs is the most executions any single transaction needed
	// (lane speculations plus the commit-lane re-execution). 3 means
	// some transaction conflicted twice: its retry went stale too, and
	// the committer re-executed it a second time.
	MaxTxExecs int
	// LaneBusy is each lane's modeled busy time.
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
	// applyErr is a transaction validation failure (nonce, funds —
	// sequential execution fails the whole bundle on it).
	applyErr error
	// abortErr is a hardware abort (Memory Overflow, L3 tamper).
	abortErr error
	// hardErr is any other error panic out of the execution path,
	// already wrapped like the sequential path wraps it.
	hardErr error
	// bugPanic carries a non-error panic to re-raise on the committer.
	bugPanic any
	attempts int
	// specEnd is the lane-relative virtual time the speculation
	// finished at.
	specEnd time.Duration
}

// failed reports whether the speculation ended in any failure mode.
func (o *laneOutcome) failed() bool {
	return o.applyErr != nil || o.abortErr != nil || o.hardErr != nil
}

// runTxsParallel pre-executes the bundle's transactions optimistically
// in parallel (DESIGN.md §16): transaction i runs speculatively on lane
// i mod N against a versioned view of the bundle's base snapshot,
// recording its read and write sets; the committer walks the bundle in
// order, validates each read set against the committed buffer, commits
// clean write sets, and re-executes conflicting transactions on the
// commit lane — so the resulting traces are byte-identical to
// sequential execution.
//
//hardtape:poolsafe-ok laneOutcome buffers are bundle-scoped, never pooled; the slot channel hand-off in ExecuteContext covers the slot itself
func (d *Device) runTxsParallel(s *slot, blockCtx evm.BlockContext, bundle *types.Bundle, result *BundleResult, xsp *telemetry.TraceSpan) (err error) {
	lanes := s.lanes
	n := len(bundle.Txs)
	v := state.NewVersioned()
	base := s.clock.Now()
	laneClocks := make([]*simclock.Clock, len(lanes))
	for i, l := range lanes {
		laneClocks[i] = l.clock
	}
	ls := simclock.NewLaneSet(base, laneClocks)

	outcomes := make([]*laneOutcome, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	// The slot is reset and recycled as soon as executeOn returns, so
	// every worker must be drained before then; stopping first keeps
	// the drain short when the committer bails out early.
	defer wg.Wait()
	defer stop.Store(true)

	for w, l := range lanes {
		wg.Add(1)
		go func(w int, l *laneState) {
			defer wg.Done()
			laneBase := d.newLaneReader(l, xsp.Context())
			for i := w; i < n; i += len(lanes) {
				if stop.Load() {
					close(done[i])
					continue
				}
				outcomes[i] = d.speculate(l, laneBase, v, blockCtx, bundle.Txs[i])
				close(done[i])
			}
		}(w, l)
	}

	// In-order commit. The commit lane (the slot's primary hardware
	// set) validates, commits, and re-executes conflicts; its reader
	// serializes against in-flight lanes per query.
	cal := d.cfg.Calibration
	commitReader := d.newLaneReader(&s.laneState, xsp.Context())
	stats := &ParallelStats{Lanes: len(lanes)}
	result.Parallel = stats
	traces := make([]*tracer.TxTrace, 0, n)
	defer func() {
		result.Trace = &tracer.BundleTrace{Txs: traces}
		phase := s.clock.Now() - base
		for _, l := range lanes {
			busy := l.clock.Now()
			stats.LaneBusy = append(stats.LaneBusy, busy)
			if phase > 0 {
				stats.Occupancy += float64(busy) / (float64(phase) * float64(len(lanes)))
			}
		}
	}()

	for i := 0; i < n; i++ {
		<-done[i]
		out := outcomes[i]
		if out.bugPanic != nil {
			panic(out.bugPanic) // genuine bug, re-raise
		}
		stats.Speculations += out.attempts
		stats.SpecRetries += out.attempts - 1
		execs := out.attempts

		// The committer can act no earlier than the lane finished, and
		// pays a tag compare per read-set entry.
		s.clock.AdvanceTo(ls.Absolute(out.specEnd))
		s.clock.Advance(time.Duration(out.rs.Len()) * cal.LaneValidatePerRead)

		if v.Validate(out.rs) {
			// The speculation saw exactly the committed prefix: its
			// outcome — success or failure — is what sequential
			// execution would produce.
			if out.failed() {
				return d.finishFailed(result, i, out)
			}
			v.Commit(out.ws, commitReader)
			s.clock.Advance(time.Duration(out.ws.Len()) * cal.LaneCommitPerWrite)
			traces = append(traces, out.trace)
			result.GasUsed += out.res.GasUsed
			if execs > stats.MaxTxExecs {
				stats.MaxTxExecs = execs
			}
			continue
		}

		// Conflict: a transaction committed after the speculation began
		// changed something it read. Re-execute in order on the commit
		// lane; against the committed prefix the result is final.
		stats.Conflicts++
		stats.ReExecs++
		execs++
		if execs > stats.MaxTxExecs {
			stats.MaxTxExecs = execs
		}
		// Conflict re-executions are first-class trace spans: a trace of
		// a contended bundle shows exactly which transactions paid the
		// serial re-run (the tx index is its bundle position — public
		// structure, not content).
		var rsp *telemetry.TraceSpan
		if xsp != nil {
			rsp = d.cfg.Telemetry.Tracer().StartSpan("lane.reexec", xsp.Context())
			rsp.AddInt("tx", int64(i))
		}
		span := s.clock.StartSpan()
		re := d.specOnce(&s.laneState, commitReader, v, blockCtx, bundle.Txs[i])
		stats.ReExecTime += span.Elapsed()
		rsp.End()
		if re.bugPanic != nil {
			panic(re.bugPanic)
		}
		if re.failed() {
			return d.finishFailed(result, i, re)
		}
		v.Commit(re.ws, commitReader)
		s.clock.Advance(time.Duration(re.ws.Len()) * cal.LaneCommitPerWrite)
		traces = append(traces, re.trace)
		result.GasUsed += re.res.GasUsed
	}
	return nil
}

// finishFailed maps a validated failure outcome onto the sequential
// path's behaviour: validation failures and non-abort panics fail the
// bundle, hardware aborts end it with Aborted set (earlier transactions
// keep their traces).
func (d *Device) finishFailed(result *BundleResult, i int, out *laneOutcome) error {
	if out.applyErr != nil {
		return fmt.Errorf("core: tx %d: %w", i, out.applyErr)
	}
	if out.abortErr != nil {
		result.Aborted = out.abortErr
		return nil
	}
	return out.hardErr
}

// speculate runs one transaction on a lane, retrying once if an
// advisory validation shows the view went stale mid-flight. The final
// say stays with the committer; the retry only keeps cheap conflicts
// off the serial commit lane.
func (d *Device) speculate(l *laneState, laneBase state.Reader, v *state.Versioned,
	blockCtx evm.BlockContext, tx *types.Transaction) *laneOutcome {
	var out *laneOutcome
	for attempt := 1; attempt <= maxSpecAttempts; attempt++ {
		out = d.specOnce(l, laneBase, v, blockCtx, tx)
		out.attempts = attempt
		if out.bugPanic != nil {
			break
		}
		l.clock.Advance(time.Duration(out.rs.Len()) * d.cfg.Calibration.LaneValidatePerRead)
		if v.Validate(out.rs) {
			break
		}
	}
	out.specEnd = l.clock.Now()
	return out
}

// specOnce executes one transaction on the given lane against a fresh
// versioned overlay and returns its outcome with read/write sets. Both
// speculative lanes and the committer's re-execution path run through
// here; they differ only in the reader and in whether the outcome is
// validated afterwards.
func (d *Device) specOnce(l *laneState, laneBase state.Reader, v *state.Versioned,
	blockCtx evm.BlockContext, tx *types.Transaction) (out *laneOutcome) {
	out = &laneOutcome{}
	txo := state.NewTxOverlay(v, laneBase)
	e := evm.New(blockCtx, txo)
	ttr := tracer.New(d.cfg.CaptureSteps)
	e.Hooks = evm.CombineHooks(ttr.Hooks(), l.machine.Hooks())
	if d.tm.enabled {
		e.Hooks = evm.CombineHooks(e.Hooks, l.opCounts.Hooks())
	}
	defer func() {
		if r := recover(); r != nil {
			out.abortErr, out.hardErr, out.bugPanic = classifyPanic(r)
			if out.bugPanic != nil {
				return
			}
			// The read set decides whether this failure is authoritative
			// (the sequential execution would have hit it too) or an
			// artifact of a stale view.
			out.rs, _ = txo.Finish()
		}
	}()
	ttr.BeginTx(tx.Hash())
	res, applyErr := e.ApplyTransaction(tx)
	if applyErr != nil {
		out.applyErr = applyErr
		out.rs, _ = txo.Finish()
		return out
	}
	out.res = res
	out.trace = ttr.EndTx(res)
	out.rs, out.ws = txo.Finish()
	return out
}
