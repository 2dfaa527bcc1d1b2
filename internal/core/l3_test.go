package core

import (
	"bytes"
	"fmt"
	"testing"

	"hardtape/internal/drbg"
	"hardtape/internal/evm"
	"hardtape/internal/hevm"
	"hardtape/internal/state"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// smallL2 is a 16-page L2 that a deep call chain overflows.
func smallL2(cfg Config) Config {
	cfg.Hardware.L2Bytes = 16 << 10
	cfg.Hardware.FrameLimitBytes = 8 << 10
	return cfg
}

// deepBundle is one call of the DeepCaller 40 levels deep.
func deepBundle(t testing.TB, w *workload.World, from int) *types.Bundle {
	t.Helper()
	tx, err := w.SignedTxAt(w.EOAs[from], 0, &w.DeepCaller, 0, workload.CalldataUint(40), 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return &types.Bundle{Txs: []*types.Transaction{tx}}
}

// gethWithSteps is baseline.Geth's run of b (one overlay over the
// chain's head, transactions in order) with step capture on.
func (r *rig) gethWithSteps(t testing.TB, b *types.Bundle) *BundleResult {
	t.Helper()
	e := evm.New(workload.NewBlockContext(&r.chain.Head().Header), state.NewOverlay(r.chain.State()))
	tr := tracer.New(true)
	e.Hooks = tr.Hooks()
	out := &BundleResult{}
	for _, tx := range b.Txs {
		tr.BeginTx(tx.Hash())
		res, err := e.ApplyTransaction(tx)
		if err != nil {
			t.Fatal(err)
		}
		tr.EndTx(res)
		out.GasUsed += res.GasUsed
	}
	out.Trace = tr.Bundle()
	return out
}

// rogueL3 keeps every copy of every page it is given. Armed with an
// attack, it answers one Get with the attack's bytes; every other Get
// is honest.
type rogueL3 struct {
	hevm.MemL3
	copies map[uint64][][]byte // every blob put for a page, oldest first
	attack func(r *rogueL3, page uint64) ([]byte, bool)
}

func newRogueL3(attack func(r *rogueL3, page uint64) ([]byte, bool)) *rogueL3 {
	return &rogueL3{MemL3: hevm.MemL3{}, copies: map[uint64][][]byte{}, attack: attack}
}

func (r *rogueL3) Put(page uint64, blob []byte) {
	r.MemL3.Put(page, blob)
	r.copies[page] = append(r.copies[page], blob)
}

func (r *rogueL3) Get(page uint64) []byte {
	if r.attack != nil {
		if b, ok := r.attack(r, page); ok {
			r.attack = nil
			return b
		}
	}
	return r.MemL3.Get(page)
}

// l3Attacks are the four L3 adversaries: a bit flip, a replay of the
// page's previous copy (an earlier bundle's, since page ids restart
// with each bundle), a splice of another page's blob and a drop.
var l3Attacks = []struct {
	name   string
	attack func(r *rogueL3, page uint64) ([]byte, bool)
}{
	{"flip", func(r *rogueL3, page uint64) ([]byte, bool) {
		b := bytes.Clone(r.MemL3[page])
		b[0] ^= 0x80
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

// withL3 gives every lane of every slot of dev a machine of hardware hw
// over the L3 that dram returns, and returns the func that puts the
// old machines back. The device must be idle.
func withL3(t testing.TB, dev *Device, hw hevm.Config, dram func() hevm.L3) (restore func()) {
	t.Helper()
	var lanes []*laneState
	var old []*hevm.Machine
	for range cap(dev.slots) {
		s := <-dev.slots
		defer func() { dev.slots <- s }()
		lanes = append(append(lanes, &s.laneState), s.lanes...)
	}
	for _, l := range lanes {
		noise, err := drbg.New(0, hevm.NoiseLabel, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := hevm.New(hw, l.clock, dram(), noise)
		if err != nil {
			t.Fatal(err)
		}
		old, l.machine = append(old, l.machine), m
	}
	return func() {
		for range cap(dev.slots) {
			s := <-dev.slots
			defer func() { dev.slots <- s }()
		}
		for i, l := range lanes {
			l.machine = old[i]
		}
	}
}

// TestSwapTraceParity: a DeepCaller bundle that swaps on a small L2
// traces byte for byte, steps included, as baseline.Geth's executor
// does, under -raw and -full.
func TestSwapTraceParity(t *testing.T) {
	raw, full := smallL2(config(ConfigRaw, 1, 0)), smallL2(config(ConfigFull, 1, 0))
	raw.CaptureSteps, full.CaptureSteps = true, true
	r := newRig(t, deviceWorld, raw, full)
	b := deepBundle(t, r.world, 0)
	want := r.gethWithSteps(t, b)
	for _, dev := range r.devices {
		got, err := dev.Execute(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.HEVMStats.SwapEvents == 0 || got.HEVMStats.PagesLoaded == 0 {
			t.Fatalf("%v: the bundle did not swap: %+v", dev.cfg.Features, got.HEVMStats)
		}
		assertParity(t, fmt.Sprintf("features %v", dev.cfg.Features), want, got, true)
	}
}

// TestL3AdversariesAbortBundle: each L3 adversary, striking in a
// device's second bundle, aborts it with ErrL3Tampered; the same slot
// then serves the next bundle with parity.
func TestL3AdversariesAbortBundle(t *testing.T) {
	r := newRig(t, deviceWorld, smallL2(config(ConfigRaw, 1, 0)))
	for i, a := range l3Attacks {
		t.Run(a.name, func(t *testing.T) {
			rogue := newRogueL3(nil)
			defer withL3(t, r.device, r.device.cfg.Hardware, func() hevm.L3 { return rogue })()
			b := deepBundle(t, r.world, i)
			want := r.oracle(t, b)
			for round, armed := range []bool{false, true, false} {
				if armed {
					rogue.attack = a.attack
				}
				res, err := r.device.Execute(b)
				switch {
				case err != nil:
					t.Fatalf("bundle %d: %v", round, err)
				case armed && res.Aborted != hevm.ErrL3Tampered:
					t.Fatalf("bundle %d: aborted %v, want ErrL3Tampered", round, res.Aborted)
				case !armed:
					assertParity(t, a.name, want, res, true)
				}
			}
			if rogue.attack != nil {
				t.Fatal("the attack never struck")
			}
		})
	}
}
