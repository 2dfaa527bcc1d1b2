// Package tracer records structured execution traces of pre-executed
// transactions — the product HarDTAPE returns to its user (paper
// step 9) and the object compared against ground truth for the
// correctness evaluation (§VI-B, mirroring debug_traceTransaction).
package tracer

import (
	"fmt"

	"hardtape/internal/evm"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// Step is one executed instruction (PC, opcode, gas — the fields the
// quicknode ground-truth traces carry).
type Step struct {
	Depth    int
	PC       uint64
	Op       evm.OpCode
	Gas      uint64
	Cost     uint64
	StackLen int
}

// CallRecord is one execution frame.
type CallRecord struct {
	Kind       evm.CallKind
	Depth      int
	From       types.Address
	To         types.Address
	Value      *uint256.Int
	Gas        uint64
	GasUsed    uint64
	InputSize  int
	ReturnSize int
	Reverted   bool
	Failed     bool
}

// TxTrace is everything recorded for one transaction.
type TxTrace struct {
	TxHash     types.Hash
	GasUsed    uint64
	ReturnData []byte
	Reverted   bool
	Failed     bool

	Steps   []Step
	Calls   []CallRecord
	Storage []types.StorageAccess
	Logs    []*types.Log

	// MaxCallDepth and frame statistics feed Table I reproduction.
	MaxCallDepth int
}

// BundleTrace aggregates the traces of one pre-executed bundle.
type BundleTrace struct {
	StateBlock uint64
	Txs        []*TxTrace
}

// Tracer collects TxTraces through evm.Hooks. One tracer serves one
// bundle (the paper implements it as a virtual frame below all
// execution frames). Not safe for concurrent use.
type Tracer struct {
	// CaptureSteps toggles per-instruction capture (expensive; the
	// correctness harness wants it, throughput benchmarks do not).
	CaptureSteps bool

	current *TxTrace
	bundle  BundleTrace
	// callStack tracks open frames to fill GasUsed on exit.
	callStack []int
}

// New returns a tracer. With captureSteps false only frame-level and
// storage events are recorded.
func New(captureSteps bool) *Tracer {
	return &Tracer{CaptureSteps: captureSteps}
}

// Hooks returns the evm.Hooks wired to this tracer. OnStep is only
// installed when CaptureSteps is set (decide before calling Hooks):
// leaving it nil lets the interpreter skip per-instruction StepInfo
// assembly entirely on throughput runs.
func (t *Tracer) Hooks() *evm.Hooks {
	h := &evm.Hooks{
		OnCallEnter:  t.onCallEnter,
		OnCallExit:   t.onCallExit,
		OnWorldState: t.onWorldState,
	}
	if t.CaptureSteps {
		h.OnStep = t.onStep
	}
	return h
}

// BeginTx starts recording a transaction.
func (t *Tracer) BeginTx(txHash types.Hash) {
	t.current = &TxTrace{TxHash: txHash}
	t.callStack = t.callStack[:0]
}

// EndTx finalizes the record with the execution result. Logs come
// from the result, not from a hook: a log emitted in a frame that later
// reverts is gone by then.
func (t *Tracer) EndTx(res *evm.ExecutionResult) *TxTrace {
	if t.current == nil {
		return nil
	}
	tr := t.current
	tr.GasUsed = res.GasUsed
	tr.ReturnData = append([]byte(nil), res.ReturnData...)
	tr.Reverted = res.Reverted()
	tr.Failed = res.Err != nil && !res.Reverted()
	tr.Logs = res.Logs
	t.bundle.Txs = append(t.bundle.Txs, tr)
	t.current = nil
	return tr
}

// Bundle returns the accumulated bundle trace.
func (t *Tracer) Bundle() *BundleTrace {
	b := t.bundle
	return &b
}

func (t *Tracer) onStep(info evm.StepInfo) {
	if t.current == nil || !t.CaptureSteps {
		return
	}
	t.current.Steps = append(t.current.Steps, Step{
		Depth:    info.Depth,
		PC:       info.PC,
		Op:       info.Op,
		Gas:      info.Gas,
		Cost:     info.Cost,
		StackLen: info.StackLen,
	})
}

func (t *Tracer) onCallEnter(info evm.CallFrameInfo) {
	if t.current == nil {
		return
	}
	t.current.Calls = append(t.current.Calls, CallRecord{
		Kind:      info.Kind,
		Depth:     info.Depth,
		From:      info.Caller,
		To:        info.Address,
		Value:     info.Value,
		Gas:       info.Gas,
		InputSize: info.InputSize,
	})
	t.callStack = append(t.callStack, len(t.current.Calls)-1)
	if d := info.Depth + 1; d > t.current.MaxCallDepth {
		t.current.MaxCallDepth = d
	}
}

func (t *Tracer) onCallExit(info evm.CallResultInfo) {
	if t.current == nil || len(t.callStack) == 0 {
		return
	}
	idx := t.callStack[len(t.callStack)-1]
	t.callStack = t.callStack[:len(t.callStack)-1]
	rec := &t.current.Calls[idx]
	rec.GasUsed = info.GasUsed
	rec.ReturnSize = info.ReturnSize
	rec.Reverted = info.Reverted
	rec.Failed = info.Err != nil && !info.Reverted
}

func (t *Tracer) onWorldState(a evm.WorldStateAccess) {
	if t.current == nil || a.Kind != evm.WSStorage {
		return
	}
	t.current.Storage = append(t.current.Storage, types.StorageAccess{
		Address: a.Addr,
		Slot:    a.Key,
		Write:   a.Write,
	})
}

// Diff compares two transaction traces and returns a human-readable
// list of divergences (empty means identical behaviour). It compares
// outcomes, gas, return data, calls, storage accesses and — when both
// captured them — instruction steps.
func Diff(a, b *TxTrace) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if a.Reverted != b.Reverted {
		add("reverted: %v vs %v", a.Reverted, b.Reverted)
	}
	if a.Failed != b.Failed {
		add("failed: %v vs %v", a.Failed, b.Failed)
	}
	if a.GasUsed != b.GasUsed {
		add("gasUsed: %d vs %d", a.GasUsed, b.GasUsed)
	}
	if string(a.ReturnData) != string(b.ReturnData) {
		add("returnData: %x vs %x", a.ReturnData, b.ReturnData)
	}
	if len(a.Calls) != len(b.Calls) {
		add("call count: %d vs %d", len(a.Calls), len(b.Calls))
	} else {
		for i := range a.Calls {
			ca, cb := a.Calls[i], b.Calls[i]
			if ca.Kind != cb.Kind || ca.From != cb.From || ca.To != cb.To ||
				ca.GasUsed != cb.GasUsed || ca.Reverted != cb.Reverted {
				add("call %d: %s %s→%s used=%d rev=%v vs %s %s→%s used=%d rev=%v",
					i, ca.Kind, ca.From, ca.To, ca.GasUsed, ca.Reverted,
					cb.Kind, cb.From, cb.To, cb.GasUsed, cb.Reverted)
			}
		}
	}
	if len(a.Storage) != len(b.Storage) {
		add("storage access count: %d vs %d", len(a.Storage), len(b.Storage))
	} else {
		for i := range a.Storage {
			if a.Storage[i] != b.Storage[i] {
				add("storage access %d: %+v vs %+v", i, a.Storage[i], b.Storage[i])
			}
		}
	}
	if len(a.Logs) != len(b.Logs) {
		add("log count: %d vs %d", len(a.Logs), len(b.Logs))
	}
	if len(a.Steps) > 0 && len(b.Steps) > 0 {
		if len(a.Steps) != len(b.Steps) {
			add("step count: %d vs %d", len(a.Steps), len(b.Steps))
		} else {
			for i := range a.Steps {
				sa, sb := a.Steps[i], b.Steps[i]
				if sa != sb {
					add("step %d: pc=%d op=%s gas=%d vs pc=%d op=%s gas=%d",
						i, sa.PC, sa.Op, sa.Gas, sb.PC, sb.Op, sb.Gas)
					break // first divergence is enough
				}
			}
		}
	}
	return diffs
}
