package evm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"hardtape/internal/keccak"
	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// Fast-path invariants: the shared analysis cache must be safe under
// concurrent EVMs (run these with -race), and neither frame reuse nor
// hook attachment may change observable behaviour — the same bundle
// produces identical traces and gas on a cold pool and on frames a
// previous call dirtied, and identical gas/results with hooks attached
// or detached.

// synthCode builds deterministic pseudo-random bytecode of length n
// from seed, so distinct seeds give distinct code hashes with varied
// JUMPDEST / PUSH-immediate layouts.
func synthCode(seed uint64, n int) []byte {
	code := make([]byte, n)
	x := seed*2862933555777941757 + 3037000493
	for i := range code {
		x = x*6364136223846793005 + 1442695040888963407
		code[i] = byte(x >> 33)
	}
	return code
}

// TestAnalysisCacheConcurrent hammers one analysisCache from many
// goroutines with overlapping key sets sized to trip the overflow
// clear, checking every returned analysis matches a fresh scan.
func TestAnalysisCacheConcurrent(t *testing.T) {
	c := &analysisCache{entries: make(map[types.Hash]*CodeAnalysis)}
	const (
		workers = 8
		codes   = analysisCacheMaxEntries + 512 // force at least one clear
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the same key space from a different
			// offset so inserts and hits interleave.
			for i := 0; i < codes; i++ {
				seed := uint64((i + w*137) % codes)
				code := synthCode(seed, 64)
				var h types.Hash
				keccak.Sum256Into(h[:], code)
				got := c.analyze(h, code)
				want := analyzeCode(code)
				if !bytes.Equal(got.jumpdests, want.jumpdests) {
					errs <- fmt.Errorf("seed %d: cached analysis differs from fresh scan", seed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := c.size(); n == 0 || n > analysisCacheMaxEntries {
		t.Errorf("cache size %d out of bounds (0, %d]", n, analysisCacheMaxEntries)
	}
}

// TestConcurrentEVMsSharedCache runs many EVMs in parallel executing
// the same contracts, so every goroutine races on sharedAnalysis and
// the frame pool (meaningful under -race).
func TestConcurrentEVMsSharedCache(t *testing.T) {
	contracts := [][]byte{
		loopCode(nil, 16, keccakLoopBody),
		loopCode(dupSwapPrologue, 16, dupSwapLoopBody),
		deepCallCode(),
	}
	var depth [32]byte
	binary.BigEndian.PutUint64(depth[24:], 8)
	inputs := [][]byte{nil, nil, depth[:]}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (w + round) % len(contracts)
				e := newTestEVM(t, contracts[i])
				if _, _, err := e.Call(testCaller, testContract, inputs[i], 5_000_000, new(uint256.Int)); err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, round, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// stepRec is a hook recorder for parity tests. The tracer package
// cannot be used here (it imports evm), and a local recorder keeps the
// comparison independent of tracer behaviour anyway.
type stepRec struct {
	steps  []StepInfo
	enters []CallFrameInfo
	exits  []CallResultInfo
	ws     []WorldStateAccess
	mems   []MemAccess
	// logs counts the logs the journal holds after each transaction.
	logs int
}

func (r *stepRec) hooks() *Hooks {
	return &Hooks{
		OnStep: func(i StepInfo) { r.steps = append(r.steps, i) },
		OnCallEnter: func(i CallFrameInfo) {
			if i.Value != nil {
				v := *i.Value // copy: the pointee may be pooled
				i.Value = &v
			}
			i.Frame = nil // which pooled frame runs the call is the pool's choice
			r.enters = append(r.enters, i)
		},
		OnCallExit:   func(i CallResultInfo) { r.exits = append(r.exits, i) },
		OnWorldState: func(a WorldStateAccess) { r.ws = append(r.ws, a) },
		OnMemAccess:  func(a MemAccess) { r.mems = append(r.mems, a) },
	}
}

// diff returns the first divergence between two recordings, or "".
func (r *stepRec) diff(o *stepRec) string {
	if len(r.steps) != len(o.steps) {
		return fmt.Sprintf("step count %d vs %d", len(r.steps), len(o.steps))
	}
	for i := range r.steps {
		if r.steps[i] != o.steps[i] {
			return fmt.Sprintf("step %d: %+v vs %+v", i, r.steps[i], o.steps[i])
		}
	}
	if len(r.enters) != len(o.enters) {
		return fmt.Sprintf("enter count %d vs %d", len(r.enters), len(o.enters))
	}
	for i := range r.enters {
		a, b := r.enters[i], o.enters[i]
		av, bv := a.Value, b.Value
		a.Value, b.Value = nil, nil
		if a != b || (av == nil) != (bv == nil) || (av != nil && !av.Eq(bv)) {
			return fmt.Sprintf("enter %d: %+v vs %+v", i, r.enters[i], o.enters[i])
		}
	}
	if len(r.exits) != len(o.exits) {
		return fmt.Sprintf("exit count %d vs %d", len(r.exits), len(o.exits))
	}
	for i := range r.exits {
		a, b := r.exits[i], o.exits[i]
		// Err values may be distinct instances; compare presence.
		ae, be := a.Err != nil, b.Err != nil
		a.Err, b.Err = nil, nil
		if a != b || ae != be {
			return fmt.Sprintf("exit %d: %+v vs %+v", i, r.exits[i], o.exits[i])
		}
	}
	if len(r.ws) != len(o.ws) {
		return fmt.Sprintf("worldstate count %d vs %d", len(r.ws), len(o.ws))
	}
	for i := range r.ws {
		if r.ws[i] != o.ws[i] {
			return fmt.Sprintf("worldstate %d: %+v vs %+v", i, r.ws[i], o.ws[i])
		}
	}
	if len(r.mems) != len(o.mems) {
		return fmt.Sprintf("mem-access count %d vs %d", len(r.mems), len(o.mems))
	}
	for i := range r.mems {
		if r.mems[i] != o.mems[i] {
			return fmt.Sprintf("mem access %d: %+v vs %+v", i, r.mems[i], o.mems[i])
		}
	}
	if r.logs != o.logs {
		return fmt.Sprintf("log count %d vs %d", r.logs, o.logs)
	}
	return ""
}

// parityBundle is a fixed sequence of transactions covering the fast
// paths: keccak loop, dup/swap loop, nested calls, storage, CREATE2.
type parityTx struct {
	name  string
	code  []byte
	input []byte
	gas   uint64
}

func parityBundle() []parityTx {
	var depth [32]byte
	binary.BigEndian.PutUint64(depth[24:], 12)
	// SSTORE slot0=42; SLOAD slot0; return it.
	storageCode := cat(
		push(42), push(0), []byte{byte(SSTORE)},
		push(0), []byte{byte(SLOAD)},
		returnTop,
	)
	// CREATE2(value=0, offset=0, size=0, salt=5), return the address.
	create2Code := cat(
		push(5), push(0), push(0), push(0),
		[]byte{byte(CREATE2)},
		returnTop,
	)
	return []parityTx{
		{"keccak-loop", loopCode(nil, 32, keccakLoopBody), nil, 2_000_000},
		{"dupswap-loop", loopCode(dupSwapPrologue, 32, dupSwapLoopBody), nil, 2_000_000},
		{"deep-call", deepCallCode(), depth[:], 5_000_000},
		{"storage", storageCode, nil, 1_000_000},
		{"create2", create2Code, nil, 1_000_000},
	}
}

// runParityBundle executes the bundle on a fresh EVM and returns the
// recording plus per-tx (gas used, return data).
func runParityBundle(t *testing.T, attachHooks bool) (*stepRec, []uint64, [][]byte) {
	t.Helper()
	rec := &stepRec{}
	var gasUsed []uint64
	var rets [][]byte
	for _, tx := range parityBundle() {
		e := newTestEVM(t, tx.code)
		if attachHooks {
			e.Hooks = rec.hooks()
		}
		ret, left, err := e.Call(testCaller, testContract, tx.input, tx.gas, new(uint256.Int))
		if err != nil {
			t.Fatalf("%s: %v", tx.name, err)
		}
		rec.logs += len(e.State.Logs())
		gasUsed = append(gasUsed, tx.gas-left)
		rets = append(rets, append([]byte(nil), ret...))
	}
	return rec, gasUsed, rets
}

// coldFramePool empties the frame pool: a sync.Pool drops what it holds
// over two collections (primary, then victim cache).
func coldFramePool() {
	runtime.GC()
	runtime.GC()
}

// dirtyCode is a contract that recurses to the calldata depth and then,
// in every frame on the way back, leaves 900 all-ones stack words and
// 64 KiB of all-ones memory behind it for the pool to take back.
func dirtyCode() []byte {
	deep := deepCallCode()
	prologue := append([]byte{}, deep[:len(deep)-1]...) // drop the final STOP
	ones := cat([]byte{byte(PUSH32)}, bytes.Repeat([]byte{0xff}, 32))
	for i := 0; i < 900; i++ {
		prologue = append(prologue, ones...)
	}
	// mem[counter·32] = all-ones; the counter stays on top.
	fill := cat([]byte{byte(DUP1), byte(PUSH1), 5, byte(SHL)}, ones, []byte{byte(SWAP1), byte(MSTORE)})
	return loopCode(prologue, 2048, fill)
}

// dirtyFramePool runs dirtyCode eight frames deep, so the next calls
// draw frames whose last owner used deep stacks and large memories.
func dirtyFramePool(t testing.TB) {
	t.Helper()
	var depth [32]byte
	binary.BigEndian.PutUint64(depth[24:], 8)
	if _, _, err := runCode(t, dirtyCode(), depth[:], 30_000_000); err != nil {
		t.Fatalf("dirtying call: %v", err)
	}
}

// TestPoolingParity runs the same bundle on a cold frame pool and again
// after a call that left deep stacks and large memories in pooled
// frames, and requires identical traces, gas and returns: a reused
// frame carries nothing of its previous owner.
func TestPoolingParity(t *testing.T) {
	coldFramePool()
	cold, coldGas, coldRet := runParityBundle(t, true)
	dirtyFramePool(t)
	reused, reusedGas, reusedRet := runParityBundle(t, true)
	if d := cold.diff(reused); d != "" {
		t.Fatalf("cold vs reused frames trace divergence: %s", d)
	}
	for i := range coldGas {
		if coldGas[i] != reusedGas[i] {
			t.Errorf("tx %d gas: cold %d vs reused %d", i, coldGas[i], reusedGas[i])
		}
		if !bytes.Equal(coldRet[i], reusedRet[i]) {
			t.Errorf("tx %d return: cold %x vs reused %x", i, coldRet[i], reusedRet[i])
		}
	}
	if len(cold.steps) == 0 {
		t.Fatal("recorder captured no steps; parity test is vacuous")
	}
}

// TestHookDetachParity runs the same bundle with hooks attached and
// detached: the zero-cost hook fast path must not change gas or
// results, and the attached run must actually observe events.
func TestHookDetachParity(t *testing.T) {
	rec, hookedGas, hookedRet := runParityBundle(t, true)
	_, bareGas, bareRet := runParityBundle(t, false)
	for i := range hookedGas {
		if hookedGas[i] != bareGas[i] {
			t.Errorf("tx %d gas: hooked %d vs detached %d", i, hookedGas[i], bareGas[i])
		}
		if !bytes.Equal(hookedRet[i], bareRet[i]) {
			t.Errorf("tx %d return: hooked %x vs detached %x", i, hookedRet[i], bareRet[i])
		}
	}
	if len(rec.steps) == 0 || len(rec.enters) == 0 || len(rec.ws) == 0 || len(rec.mems) == 0 {
		t.Fatalf("attached hooks missed events: steps=%d enters=%d ws=%d mems=%d",
			len(rec.steps), len(rec.enters), len(rec.ws), len(rec.mems))
	}
}

// TestPooledMemoryStartsZero releases a frame whose memory held
// non-zero bytes, then checks a fresh call observes all-zero memory —
// the reset-on-release discipline for the pooled Memory.
func TestPooledMemoryStartsZero(t *testing.T) {
	// Writer: fill mem[0..32) with a non-zero pattern via MSTORE.
	writer := cat(
		[]byte{byte(PUSH32)}, bytes.Repeat([]byte{0xAB}, 32),
		push(0), []byte{byte(MSTORE)},
		[]byte{byte(STOP)},
	)
	// Reader: expand memory to 64 bytes via MSIZE-extending MLOAD and
	// return mem[0..32) without writing it first.
	reader := cat(
		push(32), []byte{byte(MLOAD), byte(POP)},
		push(32), push(0), []byte{byte(RETURN)},
	)
	for round := 0; round < 8; round++ {
		if _, _, err := runCode(t, writer, nil, 1_000_000); err != nil {
			t.Fatal(err)
		}
		ret, _, err := runCode(t, reader, nil, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ret, make([]byte, 32)) {
			t.Fatalf("round %d: pooled memory leaked prior contents: %x", round, ret)
		}
	}
}

// newTestEVMAt deploys code at a caller-chosen address (CREATE2 parity
// support keeps all bundle contracts at testContract, so this is used
// by ad-hoc checks that need a second account).
func newTestEVMAt(t testing.TB, addr types.Address, code []byte) *EVM {
	t.Helper()
	w := state.NewWorldState()
	o := state.NewOverlay(w)
	o.CreateAccount(testCaller)
	o.AddBalance(testCaller, uint256.NewInt(1_000_000_000))
	o.CreateAccount(addr)
	o.SetCode(addr, code)
	e := New(BlockContext{
		Number:    100,
		Timestamp: 1700000000,
		GasLimit:  30_000_000,
		BaseFee:   uint256.NewInt(7),
		ChainID:   uint256.NewInt(1),
	}, o)
	return e
}

// TestAnalysisSharedAcrossEVMs checks two EVMs running the same code
// hand out the same *CodeAnalysis instance from the shared cache.
func TestAnalysisSharedAcrossEVMs(t *testing.T) {
	code := loopCode(nil, 4, keccakLoopBody)
	var h types.Hash
	keccak.Sum256Into(h[:], code)
	a1 := sharedAnalysis.analyze(h, code)
	a2 := sharedAnalysis.analyze(h, code)
	if a1 != a2 {
		t.Fatal("same code hash returned distinct analysis instances")
	}
	addr := types.MustAddress("0xd00d000000000000000000000000000000000001")
	e := newTestEVMAt(t, addr, code)
	if _, _, err := e.Call(testCaller, addr, nil, 1_000_000, new(uint256.Int)); err != nil {
		t.Fatal(err)
	}
}
