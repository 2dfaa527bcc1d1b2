package core

import (
	"bytes"
	"errors"
	"testing"

	"hardtape/internal/attest"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// TestORAMKeyTransfer: device B, built with the ORAM key it obtained
// from device A through the DHKE transfer, operates the TCP ORAM server
// with it. A acts only as the key provider and keeps its own tree: Path
// ORAM position maps are per-client, so exactly one device writes a
// shared tree at a time (see keyshare.go).
func TestORAMKeyTransfer(t *testing.T) {
	r := newRig(t, worldShape{eoas: 8, tokens: 1}, config(ConfigFull, 1, 0))
	a, w := r.device, r.world
	key, err := RequestORAMKey(a, r.verifier())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config(ConfigFull, 1, 0)
	cfg.RemoteORAMAddr = serveORAM(t, memServer(t, 1<<15))
	cfg.ORAMKey = key
	b := r.newDevice(t, cfg)
	if !bytes.Equal(a.oramKey, b.oramKey) {
		t.Fatal("devices hold different ORAM keys after transfer")
	}
	// The successor device operates the server's tree with the
	// inherited key.
	token := w.Tokens[0]
	tx, err := w.SignedTxAt(w.EOAs[0], 0, &token, 0,
		workload.CalldataTransfer(w.EOAs[1], 9), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil || res.Trace.Txs[0].Reverted {
		t.Fatalf("successor bundle failed: %+v", res)
	}
	if res.ORAMQueries == 0 {
		t.Fatal("successor did not touch the remote ORAM")
	}
}

func TestORAMKeyTransferRejectsImposter(t *testing.T) {
	r := newRig(t, worldShape{eoas: 8, tokens: 1}, config(ConfigFull, 1, 0))
	// A requester pinning a DIFFERENT manufacturer must refuse A's key
	// offer (it would otherwise hand its trust to an unknown device).
	evil, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	wrongVerifier := attest.NewVerifier(evil.PublicKey(), ImageMeasurement())
	if _, err := RequestORAMKey(r.device, wrongVerifier); err == nil {
		t.Fatal("key transfer accepted an unverifiable provider")
	}
}

func TestOfferORAMKeyWithoutORAM(t *testing.T) {
	r := newRig(t, worldShape{eoas: 4, tokens: 1}, config(ConfigRaw, 1, 0)) // no ORAM
	if _, _, err := r.device.OfferORAMKey([32]byte{}); !errors.Is(err, ErrNoORAMKey) {
		t.Fatalf("raw device offered a key: %v", err)
	}
}

func TestBadORAMKeyLengthRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ORAMKey = []byte("short")
	if _, err := NewDevice(cfg, nil, nil); err == nil {
		t.Fatal("short ORAM key accepted")
	}
}
