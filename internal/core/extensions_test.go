package core

import (
	"net"
	"sync/atomic"
	"testing"

	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// TestRemoteORAMDevice runs the whole device against a TCP ORAM server
// — the paper's actual deployment topology.
func TestRemoteORAMDevice(t *testing.T) {
	inner, err := oram.NewMemServer(1 << 15)
	if err != nil {
		t.Fatal(err)
	}
	var pathWrites atomic.Int64
	inner.SetObserver(func(ev oram.AccessEvent) {
		if ev.Write {
			pathWrites.Add(1)
		}
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := oram.ServeTCP(inner, l)
	defer srv.Close()

	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 8
	wcfg.Tokens = 1
	wcfg.DEXes = 1
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HEVMs = 1
	cfg.RemoteORAMAddr = srv.Addr().String()
	dev, err := NewDevice(cfg, nil, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
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
	inner, err := oram.NewMemServer(1 << 15)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := oram.ServeTCP(inner, l)
	defer srv.Close()

	run := func(remoteAddr string) *tracer.TxTrace {
		wcfg := workload.DefaultConfig()
		wcfg.EOAs = 8
		wcfg.Tokens = 1
		wcfg.DEXes = 1
		w, err := workload.BuildWorld(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := node.New(w.State)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.HEVMs = 1
		cfg.RemoteORAMAddr = remoteAddr
		dev, err := NewDevice(cfg, nil, chain)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Sync(); err != nil {
			t.Fatal(err)
		}
		dex := w.DEXes[0]
		tx, err := w.SignedTxAt(w.EOAs[0], 0, &dex, 0, workload.CalldataSwap(500), 500_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dev.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace.Txs[0]
	}
	local := run("")
	remote := run(srv.Addr().String())
	if diffs := tracer.Diff(local, remote); len(diffs) != 0 {
		t.Fatalf("transport changed behaviour: %v", diffs)
	}
}
