package evm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// reuseGasCap bounds each fuzzed call, and with it the steps, call
// depth and memory one input can cost.
const reuseGasCap = 300_000

// reuseOutcome is everything one call makes observable outside the
// interpreter.
type reuseOutcome struct {
	gasUsed uint64
	ret     []byte
	err     string
	writes  *state.WriteSet
	logs    []*types.Log
}

// runReuse executes code at testContract with input under the gas cap,
// on a TxOverlay over a fresh world state, with hooks attached when
// hooks is non-nil.
func runReuse(t *testing.T, code, input []byte, hooks *Hooks) reuseOutcome {
	t.Helper()
	w := state.NewWorldState()
	for addr, acct := range map[types.Address]*types.Account{
		testCaller:   {Balance: uint256.NewInt(1_000_000_000), CodeHash: types.EmptyCodeHash},
		testContract: {Balance: uint256.NewInt(1_000), CodeHash: w.SetCode(code)},
	} {
		if err := w.SetAccount(addr, acct); err != nil {
			t.Fatal(err)
		}
	}
	txo := state.NewTxOverlay(nil, w)
	e := New(BlockContext{
		Number:    100,
		Timestamp: 1700000000,
		GasLimit:  30_000_000,
		Coinbase:  types.MustAddress("0x5555555555555555555555555555555555555555"),
		BaseFee:   uint256.NewInt(7),
		ChainID:   uint256.NewInt(1),
	}, txo)
	e.Hooks = hooks
	ret, left, err := e.Call(testCaller, testContract, input, reuseGasCap, new(uint256.Int))
	_, ws := txo.Finish()
	return reuseOutcome{
		gasUsed: reuseGasCap - left,
		ret:     append([]byte(nil), ret...),
		err:     fmt.Sprint(err),
		writes:  ws,
		logs:    txo.Logs(),
	}
}

// countingHooks attaches every hook and only counts events, so a long
// fuzzed run costs no memory per step.
func countingHooks() *Hooks {
	var n int
	return &Hooks{
		OnStep:       func(StepInfo) { n++ },
		OnCallEnter:  func(CallFrameInfo) { n++ },
		OnCallExit:   func(CallResultInfo) { n++ },
		OnWorldState: func(WorldStateAccess) { n++ },
		OnMemAccess:  func(MemAccess) { n++ },
		OnLog:        func(*types.Log) { n++ },
	}
}

// FuzzFrameReuse runs random bytecode three times: first on a cold frame
// pool, again after a call that leaves deep stacks and large memories in pooled frames,
// and once more with every hook attached. Gas used, return data, error
// and the journal's write set and logs must be identical across the
// three: neither a reused frame nor an observer changes what a call
// does.
func FuzzFrameReuse(f *testing.F) {
	for _, tx := range parityBundle() {
		f.Add(tx.code, tx.input)
	}
	f.Add(dirtyCode(), []byte{31: 2})
	// MLOAD of never-written memory, MSIZE, and a deep DUP16 read.
	f.Add(cat(push(4096), []byte{byte(MLOAD), byte(MSIZE), byte(ADD)}, returnTop), []byte(nil))
	f.Add([]byte{byte(DUP1 + 15)}, []byte(nil))
	f.Fuzz(func(t *testing.T, code, input []byte) {
		if len(code) > 1<<15 || len(input) > 1<<12 {
			t.Skip("input beyond the sizes this target explores")
		}
		coldFramePool()
		first := runReuse(t, code, input, nil)
		dirtyFramePool(t)
		reused := runReuse(t, code, input, nil)
		hooked := runReuse(t, code, input, countingHooks())
		for name, got := range map[string]reuseOutcome{"after dirtying": reused, "with hooks": hooked} {
			if got.gasUsed != first.gasUsed || got.err != first.err || !bytes.Equal(got.ret, first.ret) {
				t.Fatalf("%s: gas %d ret %x err %s; first run gas %d ret %x err %s",
					name, got.gasUsed, got.ret, got.err, first.gasUsed, first.ret, first.err)
			}
			if !reflect.DeepEqual(got.writes, first.writes) || !reflect.DeepEqual(got.logs, first.logs) {
				t.Fatalf("%s: journal writes or logs differ from the first run", name)
			}
		}
	})
}
