package core

import (
	"slices"
	"testing"

	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// TestDefaultDevicesDrawIndependentNoise: two devices built alike from
// DefaultConfig share neither a serial nor a swap-noise schedule. The
// serial travels in the plaintext attestation report, so noise keyed by
// anything the SP can read is noise the SP can compute and subtract
// from the observed swap sizes (A5).
func TestDefaultDevicesDrawIndependentNoise(t *testing.T) {
	r := newRig(t, worldShape{eoas: 12, tokens: 1})
	w := r.world
	// run executes 8 deep-call bundles per slot, one at a time, so the
	// slots take turns; it returns the serial and each slot's sequence
	// of (noisy) evicted page counts.
	run := func() (string, [][]int) {
		cfg := DefaultConfig()
		cfg.Features = ConfigRaw
		cfg.Hardware.L2Bytes = 16 << 10
		cfg.Hardware.FrameLimitBytes = 8 << 10
		dev := r.newDevice(t, cfg)
		evicted := make([][]int, cfg.HEVMs)
		for i := 0; i < 8*cfg.HEVMs; i++ {
			tx, err := w.SignedTxAt(w.EOAs[i%len(w.EOAs)], 0, &w.DeepCaller, 0, workload.CalldataUint(40), 5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dev.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
			if err != nil {
				t.Fatal(err)
			}
			evicted[i%cfg.HEVMs] = append(evicted[i%cfg.HEVMs], res.HEVMStats.PagesEvicted)
		}
		return dev.Booted().Serial(), evicted
	}
	serialA, a := run()
	serialB, b := run()
	if serialA == serialB {
		t.Errorf("both devices attest serial %q", serialA)
	}
	for s := range a {
		if slices.Max(a[s]) == 0 {
			t.Fatalf("slot %d never evicted: the workload does not overflow L2", s)
		}
		if slices.Equal(a[s], b[s]) {
			t.Errorf("slot %d evicted %v pages on both devices: one noise schedule", s, a[s])
		}
	}
}
