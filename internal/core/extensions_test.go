package core

import (
	"sync/atomic"
	"testing"

	"hardtape/internal/oram"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// TestRemoteORAMDevice runs the whole device against a TCP ORAM server
// — the paper's actual deployment topology.
func TestRemoteORAMDevice(t *testing.T) {
	inner := memServer(t, 1<<15)
	var pathWrites atomic.Int64
	inner.SetObserver(func(ev oram.AccessEvent) {
		if ev.Write {
			pathWrites.Add(1)
		}
	})
	cfg := config(ConfigFull, 1, 0)
	cfg.RemoteORAMAddr = serveORAM(t, inner)
	r := newRig(t, worldShape{eoas: 8, tokens: 1}, cfg)
	w, dev := r.world, r.device
	token := w.Tokens[0]
	tx, err := w.SignedTxAt(w.EOAs[0], 0, &token, 0,
		workload.CalldataTransfer(w.EOAs[1], 7), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil || res.Trace.Txs[0].Reverted || res.ORAMQueries == 0 {
		t.Fatalf("remote-ORAM execution failed: %+v", res)
	}
	// The TCP server actually held the data.
	if pathWrites.Load() == 0 {
		t.Fatal("remote server stored nothing")
	}
}

// TestRemoteAndLocalAgree: the transport must not change behaviour.
func TestRemoteAndLocalORAMAgree(t *testing.T) {
	remote := config(ConfigFull, 1, 0)
	remote.RemoteORAMAddr = serveORAM(t, memServer(t, 1<<15))
	r := newRig(t, worldShape{eoas: 8, tokens: 1}, config(ConfigFull, 1, 0), remote)
	dex := r.world.DEXes[0]
	tx, err := r.world.SignedTxAt(r.world.EOAs[0], 0, &dex, 0, workload.CalldataSwap(500), 500_000)
	if err != nil {
		t.Fatal(err)
	}
	b := &types.Bundle{Txs: []*types.Transaction{tx}}
	var res [2]*BundleResult
	for i, dev := range r.devices {
		if res[i], err = dev.Execute(b); err != nil {
			t.Fatal(err)
		}
	}
	assertParity(t, "remote ORAM", res[0], res[1], false)
}
