// interp.go measures the interpreter fast path (ISSUE 4): the three
// microbench workloads the optimization targets — keccak-heavy loop,
// dup/swap-heavy loop, deep self-call — plus raw-device bundle
// throughput. The same workloads run as go-test benchmarks in
// internal/evm (BenchmarkInterp*) and at the repo root
// (BenchmarkBundleThroughput, through core.Service); this file exports
// the numbers through `benchtab -run interp -json` for archiving.
package bench

import (
	"encoding/binary"
	"fmt"
	"testing"

	"hardtape/internal/evm"
	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
	"hardtape/internal/workload"
)

var (
	interpContract = types.MustAddress("0xc0de00000000000000000000000000000000c0de")
	interpCaller   = types.MustAddress("0xca11e4000000000000000000000000000000ca11")
)

// interpLoop assembles "PUSH2 n; loop: JUMPDEST <body>; decrement;
// DUP1; PUSH2 loop; JUMPI; STOP" (the loop counter stays on top of the
// stack through the body).
func interpLoop(prologue []byte, n uint16, body []byte) []byte {
	code := append([]byte{}, prologue...)
	code = append(code, byte(evm.PUSH1+1), byte(n>>8), byte(n))
	loop := uint16(len(code))
	code = append(code, byte(evm.JUMPDEST))
	code = append(code, body...)
	code = append(code, byte(evm.PUSH1), 1, byte(evm.SWAP1), byte(evm.SUB))
	code = append(code, byte(evm.DUP1), byte(evm.PUSH1+1), byte(loop>>8), byte(loop), byte(evm.JUMPI))
	code = append(code, byte(evm.STOP))
	return code
}

// interpKeccakBody hashes the loop-counter word every iteration.
var interpKeccakBody = []byte{
	byte(evm.DUP1), byte(evm.PUSH0), byte(evm.MSTORE),
	byte(evm.PUSH1), 32, byte(evm.PUSH0), byte(evm.KECCAK256), byte(evm.POP),
}

// interpDupSwapPrologue pushes 16 operands; interpDupSwapBody is 64
// stack-neutral DUP/SWAP/POP ops (palindromic swap runs + DUP/POP
// pairs).
var (
	interpDupSwapPrologue = func() []byte {
		var code []byte
		for i := byte(1); i <= 16; i++ {
			code = append(code, byte(evm.PUSH1), i)
		}
		return code
	}()
	interpDupSwapBody = func() []byte {
		block := []byte{
			byte(evm.SWAP1), byte(evm.SWAP1 + 1), byte(evm.SWAP1 + 2), byte(evm.SWAP1 + 3),
			byte(evm.SWAP1 + 3), byte(evm.SWAP1 + 2), byte(evm.SWAP1 + 1), byte(evm.SWAP1),
			byte(evm.DUP1 + 2), byte(evm.POP), byte(evm.DUP1 + 4), byte(evm.POP),
			byte(evm.DUP1 + 6), byte(evm.POP), byte(evm.DUP1 + 8), byte(evm.POP),
		}
		var body []byte
		for i := 0; i < 4; i++ {
			body = append(body, block...)
		}
		return body
	}()
)

// interpDeepCallCode reads a recursion depth from calldata word 0 and
// CALLs itself with depth-1 until it reaches zero.
func interpDeepCallCode() []byte {
	var code []byte
	code = append(code, byte(evm.PUSH0), byte(evm.CALLDATALOAD))
	code = append(code, byte(evm.DUP1), byte(evm.ISZERO))
	endPatch := len(code) + 1
	code = append(code, byte(evm.PUSH1+1), 0, 0, byte(evm.JUMPI))
	code = append(code, byte(evm.PUSH1), 1, byte(evm.SWAP1), byte(evm.SUB))
	code = append(code, byte(evm.PUSH0), byte(evm.MSTORE))
	code = append(code, byte(evm.PUSH0), byte(evm.PUSH0), byte(evm.PUSH1), 32, byte(evm.PUSH0), byte(evm.PUSH0))
	code = append(code, byte(evm.PUSH1+19))
	code = append(code, interpContract[:]...)
	code = append(code, byte(evm.GAS), byte(evm.CALL), byte(evm.POP), byte(evm.PUSH0))
	end := uint16(len(code))
	code[endPatch] = byte(end >> 8)
	code[endPatch+1] = byte(end)
	code = append(code, byte(evm.JUMPDEST), byte(evm.STOP))
	return code
}

// interpEVM wires a bare EVM over a fresh overlay with code deployed
// at interpContract.
func interpEVM(code []byte) *evm.EVM {
	w := state.NewWorldState()
	o := state.NewOverlay(w)
	o.CreateAccount(interpCaller)
	o.AddBalance(interpCaller, uint256.NewInt(1_000_000_000))
	o.CreateAccount(interpContract)
	o.SetCode(interpContract, code)
	return evm.New(evm.BlockContext{
		Number:    100,
		Timestamp: 1700000000,
		GasLimit:  30_000_000,
		BaseFee:   uint256.NewInt(7),
		ChainID:   uint256.NewInt(1),
	}, o)
}

// interpMeasure benchmarks repeated calls of code on one EVM (one
// warm-up call, then snapshot/revert around each measured call).
func interpMeasure(name string, code, input []byte, gas uint64) (Row, error) {
	e := interpEVM(code)
	zero := new(uint256.Int)
	if _, _, err := e.Call(interpCaller, interpContract, input, gas, zero); err != nil {
		return Row{}, fmt.Errorf("%s warm-up: %w", name, err)
	}
	var callErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := e.State.Snapshot()
			if _, _, err := e.Call(interpCaller, interpContract, input, gas, zero); err != nil {
				callErr = err
				b.FailNow()
			}
			e.State.RevertToSnapshot(snap)
		}
	})
	if callErr != nil {
		return Row{}, fmt.Errorf("%s: %w", name, callErr)
	}
	return benchRow(name, res), nil
}

// benchRow reports a testing.Benchmark result as one measured row.
func benchRow(name string, res testing.BenchmarkResult) Row {
	return Row{Name: name, Measured: []Field{
		num("wall_per_op", "ns", res.NsPerOp()),
		num("bytes_per_op", "B", res.AllocedBytesPerOp()),
		count("allocs_per_op", res.AllocsPerOp()),
	}}
}

// interpFastPath measures the interpreter fast-path workloads, and in a
// second table bundle throughput on the env's -raw device (crypto and
// ORAM off, so the number tracks the interpreter).
func interpFastPath(env *Env, _ int) ([]Table, error) {
	var depth [32]byte
	binary.BigEndian.PutUint64(depth[24:], 64)
	micro := Table{Name: "interp", Title: "Interpreter fast path — one contract call per op"}
	for _, m := range []struct {
		name  string
		code  []byte
		input []byte
		gas   uint64
	}{
		{"keccak-loop", interpLoop(nil, 256, interpKeccakBody), nil, 10_000_000},
		{"dupswap-loop", interpLoop(interpDupSwapPrologue, 256, interpDupSwapBody), nil, 10_000_000},
		{"deep-call", interpDeepCallCode(), depth[:], 30_000_000},
	} {
		row, err := interpMeasure(m.name, m.code, m.input, m.gas)
		if err != nil {
			return nil, err
		}
		micro.Rows = append(micro.Rows, row)
	}

	// Bundle throughput: 8 transfers per bundle on the -raw device.
	const txsPerBundle = 8
	dev := env.Devices["-raw"]
	token := env.World.Tokens[0]
	eoas := env.World.EOAs
	bundles := make([]*types.Bundle, len(eoas))
	for i := range bundles {
		txs := make([]*types.Transaction, txsPerBundle)
		for j := range txs {
			tx, err := env.World.SignedTxAt(eoas[i], uint64(j), &token, 0,
				workload.CalldataTransfer(eoas[(i+1)%len(eoas)], 7), 200_000)
			if err != nil {
				return nil, err
			}
			txs[j] = tx
		}
		bundles[i] = &types.Bundle{Txs: txs}
	}
	var execErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dev.Execute(bundles[i%len(bundles)]); err != nil {
				execErr = err
				b.FailNow()
			}
		}
	})
	if execErr != nil {
		return nil, fmt.Errorf("bundle-throughput: %w", execErr)
	}
	row := benchRow("bundle-throughput-raw", res)
	row.Measured = append(row.Measured,
		num("throughput", "tx/s", float64(res.N*txsPerBundle)/res.T.Seconds()))
	return []Table{micro, {
		Name:  "interp_throughput",
		Title: fmt.Sprintf("Interpreter fast path — one %d-transfer bundle per op, -raw device", txsPerBundle),
		Rows:  []Row{row},
	}}, nil
}
