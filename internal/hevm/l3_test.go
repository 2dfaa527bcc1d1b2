package hevm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"reflect"
	"testing"

	"hardtape/internal/evm"
	"hardtape/internal/evm/asm"
	"hardtape/internal/secp256k1"
	"hardtape/internal/simclock"
	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// image is a frame's bytes as one slice, all of them the frame's own.
type image []byte

func (im image) Dump(off int, p []byte) {
	clear(p)
	if off < len(im) {
		copy(p, im[off:])
	}
}

func (im image) Restore(off int, p []byte) {
	if off < len(im) {
		copy(im[off:], p)
	}
}

// rogueL3 keeps every copy of every page it is given. Its attack may
// answer one Get with bytes of its choosing; every other Get is honest.
type rogueL3 struct {
	MemL3
	copies map[uint64][][]byte // every blob put for a page, oldest first
	attack func(r *rogueL3, page uint64) ([]byte, bool)
	fired  bool
}

func newRogue(attack func(r *rogueL3, page uint64) ([]byte, bool)) *rogueL3 {
	return &rogueL3{MemL3: MemL3{}, copies: map[uint64][][]byte{}, attack: attack}
}

func (r *rogueL3) Put(page uint64, blob []byte) {
	r.MemL3.Put(page, blob)
	r.copies[page] = append(r.copies[page], blob)
}

func (r *rogueL3) Get(page uint64) []byte {
	if r.attack != nil && !r.fired {
		if b, ok := r.attack(r, page); ok {
			r.fired = true
			return b
		}
	}
	return r.MemL3.Get(page)
}

// adversaries are the four L3 attacks, each striking at its first
// chance: a bit flip, a replay of the page's previous copy, a splice of
// another page's blob and a drop.
var adversaries = []struct {
	name   string
	attack func(r *rogueL3, page uint64) ([]byte, bool)
}{
	{"flip", func(r *rogueL3, page uint64) ([]byte, bool) {
		b := bytes.Clone(r.MemL3[page])
		b[len(b)/2] ^= 0x01
		return b, true
	}},
	{"replay", func(r *rogueL3, page uint64) ([]byte, bool) {
		c := r.copies[page]
		if len(c) < 2 {
			return nil, false
		}
		return c[len(c)-2], true
	}},
	{"splice", func(r *rogueL3, page uint64) ([]byte, bool) {
		other, ok := r.MemL3[page^1]
		return other, ok
	}},
	{"drop", func(*rogueL3, uint64) ([]byte, bool) { return nil, true }},
}

// swapConfig is a 64-page L2 that three 24 KB frames overflow.
func swapConfig() Config {
	cfg := DefaultConfig()
	cfg.L2Bytes = 64 * 1024
	cfg.FrameLimitBytes = 32 * 1024
	return cfg
}

// bottomImage is the bottom frame's bytes: 24 KB of memory, then 1 000
// bytes of code, every byte distinct from its neighbours.
func bottomImage() image {
	im := make(image, 24*1024+1000)
	for i := range im {
		im[i] = byte(i*7 + i>>8)
	}
	return im
}

// swapTwice drives the bottom frame (with image bottom) out to L3 and
// back twice: two 24 KB callers above it overflow L2 and return, twice.
// It returns the error a halt carried, or nil.
func swapTwice(m *Machine, bottom evm.FrameImage) (err error) {
	defer func() {
		if r := recover(); r != nil {
			h, ok := r.(*evm.HaltError)
			if !ok {
				panic(r)
			}
			err = h.Err
		}
	}()
	m.Hooks().OnCallEnter(evm.CallFrameInfo{CodeSize: 1000, Frame: bottom})
	touch(m, 0, 24*1024)
	for round := 0; round < 2; round++ {
		for d := 1; d <= 2; d++ {
			enter(m, d, 0, 1000)
			touch(m, 0, 24*1024)
		}
		exit(m, 2)
		exit(m, 1)
	}
	exit(m, 0)
	return nil
}

// TestL3TamperDetection: each of the four adversaries, standing in the
// L3 seam, halts the transaction with ErrL3Tampered; honest, the same
// run restores the bottom frame's bytes exactly.
func TestL3TamperDetection(t *testing.T) {
	honest := newRogue(nil)
	m, err := New(swapConfig(), simclock.NewClock(), honest, seededNoise(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	im := bottomImage()
	if err := swapTwice(m, im); err != nil {
		t.Fatalf("honest L3: %v", err)
	}
	if !bytes.Equal(im, bottomImage()) {
		t.Fatal("honest L3: the bottom frame's bytes did not survive the round trip")
	}
	if len(honest.copies[0]) < 2 || len(honest.copies[1]) == 0 {
		t.Fatalf("the run sealed page 0 %d times and page 1 %d times", len(honest.copies[0]), len(honest.copies[1]))
	}
	for _, a := range adversaries {
		t.Run(a.name, func(t *testing.T) {
			rogue := newRogue(a.attack)
			m, err := New(swapConfig(), simclock.NewClock(), rogue, seededNoise(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := swapTwice(m, bottomImage()); !rogue.fired || !errors.Is(err, ErrL3Tampered) {
				t.Fatalf("attack fired %v, halt %v; want ErrL3Tampered", rogue.fired, err)
			}
		})
	}
}

// TestL3EvictionClearsFrameBytes: a page in L3 leaves zeros in the
// frame it came from.
func TestL3EvictionClearsFrameBytes(t *testing.T) {
	m, _ := newTestMachine(t, swapConfig())
	im := bottomImage()
	m.Hooks().OnCallEnter(evm.CallFrameInfo{CodeSize: 1000, Frame: im})
	touch(m, 0, 24*1024)
	for d := 1; d <= 2; d++ {
		enter(m, d, 0, 1000)
		touch(m, 0, 24*1024)
	}
	if _, inL3 := m.l3[m.frames[0].pages[0]]; !inL3 {
		t.Fatal("the bottom frame's first page was not evicted")
	}
	if !bytes.Equal(im[:PageSize], make([]byte, PageSize)) {
		t.Fatal("an evicted page's bytes stayed in the frame")
	}
}

// withKey makes m seal under a fixed key, so its blobs repeat run to run.
func withKey(t testing.TB, m *Machine) *Machine {
	t.Helper()
	blk, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	if m.aead, err = cipher.NewGCM(blk); err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzL3Reload: L3 answers the reload of the bottom frame's first page,
// after its second eviction, with the fuzzer's blob. Either the blob is
// the authentic one and every byte comes back, or the transaction halts
// with ErrL3Tampered; nothing else.
func FuzzL3Reload(f *testing.F) {
	run := func(t testing.TB, attack func(*rogueL3, uint64) ([]byte, bool)) (*rogueL3, image, error) {
		rogue := newRogue(attack)
		m, err := New(swapConfig(), simclock.NewClock(), rogue, seededNoise(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		im := bottomImage()
		return rogue, im, swapTwice(withKey(t, m), im)
	}
	honest, _, err := run(f, nil)
	if err != nil || len(honest.copies[0]) != 2 {
		f.Fatalf("honest run: %v, %d copies of page 0", err, len(honest.copies[0]))
	}
	authentic := honest.copies[0][1]
	f.Add(authentic)
	for _, a := range adversaries {
		rogue := newRogue(nil)
		rogue.MemL3[0], rogue.MemL3[1] = authentic, honest.MemL3[1]
		rogue.copies[0] = honest.copies[0]
		b, _ := a.attack(rogue, 0)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		_, im, err := run(t, func(r *rogueL3, page uint64) ([]byte, bool) {
			return blob, page == 0 && len(r.copies[0]) == 2
		})
		switch {
		case bytes.Equal(blob, authentic):
			if err != nil || !bytes.Equal(im, bottomImage()) {
				t.Fatalf("authentic blob: halt %v, bytes restored %v", err, bytes.Equal(im, bottomImage()))
			}
		case !errors.Is(err, ErrL3Tampered):
			t.Fatalf("forged blob: halt %v, want ErrL3Tampered", err)
		}
	})
}

// nestedRuntime re-enters itself calldata[0] times. Each frame keeps
// v = 7n+1 on its stack and at memory offset 4096 across its call, and
// returns the callee's result plus both copies of v, logging it.
func nestedRuntime() []byte {
	a := asm.New()
	a.Push(0).Op(evm.CALLDATALOAD) // [n]
	a.Op(evm.DUP1).Op(evm.ISZERO).JumpI("done")
	a.Op(evm.DUP1).Push(7).Op(evm.MUL).Push(1).Op(evm.ADD) // [n, v]
	a.Op(evm.DUP1).Push(4096).Op(evm.MSTORE)
	a.Push(1).Op(evm.DUP1 + 2).Op(evm.SUB).Push(0).Op(evm.MSTORE) // mem[0] = n-1
	a.Push(32).Push(32).Push(32).Push(0).Push(0)                  // out 32@32, in 32@0, value 0
	a.Op(evm.ADDRESS).Op(evm.GAS).Op(evm.CALL).Op(evm.POP)
	a.Push(32).Op(evm.MLOAD).Op(evm.ADD)   // [n, v+r]
	a.Push(4096).Op(evm.MLOAD).Op(evm.ADD) // [n, v+r+v]
	a.Push(0).Op(evm.MSTORE)               // [n]
	a.Push(32).Push(0).Op(evm.LOG1)
	a.ReturnData(0, 32)
	a.Label("done")
	a.ReturnData(0, 32)
	return a.MustAssemble()
}

// runNested applies one call of nestedRuntime with n levels on a
// machine of cfg.
func runNested(t *testing.T, cfg Config, n uint64) (*evm.ExecutionResult, Stats) {
	t.Helper()
	priv, err := secp256k1.GenerateKey([]byte("l3 round trip"))
	if err != nil {
		t.Fatal(err)
	}
	sender, contract := types.Address(priv.Public.Address()), types.BytesToAddress([]byte{0xc0})
	o := state.NewOverlay(state.NewWorldState())
	o.CreateAccount(sender)
	o.AddBalance(sender, uint256.NewInt(1<<60))
	o.CreateAccount(contract)
	o.SetCode(contract, nestedRuntime())
	data := uint256.NewInt(n).Bytes32()
	tx := &types.Transaction{GasPrice: uint256.NewInt(1), GasLimit: 10_000_000, To: &contract,
		Value: new(uint256.Int), Data: data[:]}
	if err := tx.Sign(priv); err != nil {
		t.Fatal(err)
	}
	m, _ := newTestMachine(t, cfg)
	e := evm.New(evm.BlockContext{Number: 1, GasLimit: 30_000_000}, o)
	e.Hooks = m.Hooks()
	res, err := e.ApplyTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Stats()
}

// TestL3RoundTripThroughInterpreter: on an L2 too small for the call
// chain, the callers' stack and memory go out to L3 and come back, and
// the transaction's output, gas and logs match the run that never
// swaps. The output sums every level's two copies of v, so a reload
// that did not write a frame back would change it.
func TestL3RoundTripThroughInterpreter(t *testing.T) {
	const n = 12
	small := DefaultConfig()
	small.L2Bytes, small.FrameLimitBytes = 16<<10, 8<<10
	want, wantStats := runNested(t, DefaultConfig(), n)
	got, stats := runNested(t, small, n)
	if wantStats.SwapEvents != 0 || stats.SwapEvents == 0 || stats.PagesLoaded == 0 {
		t.Fatalf("swap events %d at the default L2, %d (%d pages loaded) on the small one",
			wantStats.SwapEvents, stats.SwapEvents, stats.PagesLoaded)
	}
	sum := uint64(0)
	for k := uint64(1); k <= n; k++ {
		sum += 2 * (7*k + 1)
	}
	if want.Err != nil || new(uint256.Int).SetBytes(want.ReturnData).Uint64() != sum {
		t.Fatalf("default L2: err %v, output %x, want %d", want.Err, want.ReturnData, sum)
	}
	if !bytes.Equal(got.ReturnData, want.ReturnData) || got.GasUsed != want.GasUsed || !reflect.DeepEqual(got.Logs, want.Logs) {
		t.Fatalf("small L2: output %x gas %d logs %d, want %x gas %d logs %d",
			got.ReturnData, got.GasUsed, len(got.Logs), want.ReturnData, want.GasUsed, len(want.Logs))
	}
}
