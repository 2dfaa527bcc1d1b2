package tracer

import (
	"testing"

	"hardtape/internal/evm"
	"hardtape/internal/evm/asm"
	"hardtape/internal/secp256k1"
	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// runWithTracer executes a signed transaction under a fresh EVM with the
// given tracer attached, returning the trace.
func runWithTracer(t *testing.T, tr *Tracer, code []byte) *TxTrace {
	t.Helper()
	priv, err := secp256k1.GenerateKey([]byte("trace sender"))
	if err != nil {
		t.Fatal(err)
	}
	sender := types.Address(priv.Public.Address())
	contract := types.MustAddress("0xc0de00000000000000000000000000000000c0de")

	o := state.NewOverlay(state.NewWorldState())
	o.CreateAccount(sender)
	o.AddBalance(sender, uint256.NewInt(1<<50))
	o.CreateAccount(contract)
	o.SetCode(contract, code)

	e := evm.New(evm.BlockContext{Number: 1, GasLimit: 30_000_000}, o)
	e.Hooks = tr.Hooks()

	tx := &types.Transaction{
		Nonce: 0, GasPrice: uint256.NewInt(1), GasLimit: 500_000,
		To: &contract, Value: new(uint256.Int),
	}
	if err := tx.Sign(priv); err != nil {
		t.Fatal(err)
	}
	tr.BeginTx(tx.Hash())
	res, err := e.ApplyTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	return tr.EndTx(res)
}

func simpleCode() []byte {
	return asm.New().
		SStore(1, 0xaa).
		Push(1).Op(evm.SLOAD).Op(evm.POP).
		Push(0x42).Push(0).Op(evm.MSTORE).
		ReturnData(0, 32).
		MustAssemble()
}

func TestTraceCapturesSteps(t *testing.T) {
	tr := New(true)
	trace := runWithTracer(t, tr, simpleCode())
	if len(trace.Steps) == 0 {
		t.Fatal("no steps captured")
	}
	// First step is at PC 0.
	if trace.Steps[0].PC != 0 {
		t.Fatalf("first step pc = %d", trace.Steps[0].PC)
	}
	// Storage accesses: one write + one read.
	var reads, writes int
	for _, s := range trace.Storage {
		if s.Write {
			writes++
		} else {
			reads++
		}
	}
	if writes != 1 || reads != 1 {
		t.Fatalf("storage accesses: %d writes, %d reads", writes, reads)
	}
	if trace.GasUsed == 0 || trace.Reverted || trace.Failed {
		t.Fatalf("outcome: %+v", trace)
	}
	if got := new(uint256.Int).SetBytes(trace.ReturnData); !got.Eq(uint256.NewInt(0x42)) {
		t.Fatalf("return data = %s", got)
	}
}

func TestTraceWithoutSteps(t *testing.T) {
	tr := New(false)
	trace := runWithTracer(t, tr, simpleCode())
	if len(trace.Steps) != 0 {
		t.Fatal("steps captured despite CaptureSteps=false")
	}
	if len(trace.Calls) == 0 {
		t.Fatal("frame records missing")
	}
}

func TestTraceCallTree(t *testing.T) {
	// Contract calls itself once (depth 2).
	contract := types.MustAddress("0xc0de00000000000000000000000000000000c0de")
	code := asm.New().
		// Re-enter only when calldata is empty.
		Op(evm.CALLDATASIZE).
		JumpI("leaf").
		Push(0).Push(0).Push(1).Push(0). // outSize outOff inSize inOff (inSize=1 → callee sees data)
		Push(0).                         // value
		PushAddr(contract).
		Push(50_000).
		Op(evm.CALL).Op(evm.POP).
		Stop().
		Label("leaf").
		Stop().
		MustAssemble()
	tr := New(false)
	trace := runWithTracer(t, tr, code)
	if len(trace.Calls) != 2 {
		t.Fatalf("calls = %d, want 2", len(trace.Calls))
	}
	if trace.MaxCallDepth != 2 {
		t.Fatalf("max depth = %d", trace.MaxCallDepth)
	}
	if trace.Calls[1].Depth != 1 {
		t.Fatalf("inner call depth = %d", trace.Calls[1].Depth)
	}
	// Frame gas accounting: inner call used > 0, outer ≥ inner.
	if trace.Calls[1].GasUsed == 0 && trace.Calls[0].GasUsed < trace.Calls[1].GasUsed {
		t.Fatalf("frame gas: outer=%d inner=%d", trace.Calls[0].GasUsed, trace.Calls[1].GasUsed)
	}
}

func TestTraceRevert(t *testing.T) {
	code := asm.New().
		Push(0).Push(0).Op(evm.REVERT).
		MustAssemble()
	tr := New(true)
	trace := runWithTracer(t, tr, code)
	if !trace.Reverted || trace.Failed {
		t.Fatalf("outcome: reverted=%v failed=%v", trace.Reverted, trace.Failed)
	}
}

func TestBundleAccumulation(t *testing.T) {
	tr := New(false)
	runWithTracer(t, tr, simpleCode())
	// Second tx in the same bundle (fresh EVM/sender is fine; the
	// tracer only accumulates).
	runWithTracer(t, tr, simpleCode())
	if got := len(tr.Bundle().Txs); got != 2 {
		t.Fatalf("bundle txs = %d", got)
	}
}

func TestDiffIdenticalTraces(t *testing.T) {
	t1 := runWithTracer(t, New(true), simpleCode())
	t2 := runWithTracer(t, New(true), simpleCode())
	if diffs := Diff(t1, t2); len(diffs) != 0 {
		t.Fatalf("identical executions diverged: %v", diffs)
	}
}

func TestDiffDetectsDivergence(t *testing.T) {
	t1 := runWithTracer(t, New(true), simpleCode())
	t2 := runWithTracer(t, New(true), asm.New().
		SStore(1, 0xbb). // different value, different trace
		Push(1).Op(evm.SLOAD).Op(evm.POP).
		Push(0x43).Push(0).Op(evm.MSTORE).
		ReturnData(0, 32).
		MustAssemble())
	diffs := Diff(t1, t2)
	if len(diffs) == 0 {
		t.Fatal("divergent executions reported identical")
	}
}

func TestDiffOutcomeFields(t *testing.T) {
	a := &TxTrace{GasUsed: 100, ReturnData: []byte{1}}
	b := &TxTrace{GasUsed: 200, ReturnData: []byte{2}, Reverted: true}
	diffs := Diff(a, b)
	if len(diffs) < 3 {
		t.Fatalf("expected ≥3 diffs, got %v", diffs)
	}
}
