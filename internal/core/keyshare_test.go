package core

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"hardtape/internal/attest"
	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// keyShareRig builds two devices from ONE manufacturer sharing ONE TCP
// ORAM server: device A deploys first (fresh key); device B obtains
// A's key through the DHKE transfer.
func keyShareRig(t *testing.T) (a, b *Device, mfr *attest.Manufacturer, w *workload.World) {
	t.Helper()
	inner, err := oram.NewMemServer(1 << 15)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := oram.ServeTCP(inner, l)
	t.Cleanup(func() { _ = srv.Close() })

	mfr, err = attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 8
	wcfg.Tokens = 1
	wcfg.DEXes = 1
	w, err = workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}

	// Device A is the first deployment: it holds the ORAM key but (in
	// this test) acts only as the key provider — Path ORAM position
	// maps are per-client, so exactly one device writes the shared
	// tree at a time (see keyshare.go).
	cfgA := DefaultConfig()
	cfgA.HEVMs = 1
	cfgA.RemoteORAMAddr = srv.Addr().String()
	a, err = NewDevice(cfgA, mfr, chain)
	if err != nil {
		t.Fatal(err)
	}

	// Device B: same manufacturer, same server, key fetched from A.
	verifier := attest.NewVerifier(mfr.PublicKey(), ImageMeasurement())
	key, err := RequestORAMKey(a, verifier)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := DefaultConfig()
	cfgB.HEVMs = 1
	cfgB.RemoteORAMAddr = srv.Addr().String()
	cfgB.ORAMKey = key
	b, err = NewDevice(cfgB, mfr, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	return a, b, mfr, w
}

func TestORAMKeyTransfer(t *testing.T) {
	a, b, _, w := keyShareRig(t)
	if !bytes.Equal(a.oramKey, b.oramKey) {
		t.Fatal("devices hold different ORAM keys after transfer")
	}
	// The successor device operates the shared tree with the inherited
	// key.
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
		t.Fatal("successor did not touch the shared ORAM")
	}
}

func TestORAMKeyTransferRejectsImposter(t *testing.T) {
	a, _, _, _ := keyShareRig(t)
	// A requester pinning a DIFFERENT manufacturer must refuse A's key
	// offer (it would otherwise hand its trust to an unknown device).
	evil, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	wrongVerifier := attest.NewVerifier(evil.PublicKey(), ImageMeasurement())
	if _, err := RequestORAMKey(a, wrongVerifier); err == nil {
		t.Fatal("key transfer accepted an unverifiable provider")
	}
}

func TestOfferORAMKeyWithoutORAM(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 4
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
	cfg.Features = ConfigRaw // no ORAM
	cfg.HEVMs = 1
	dev, err := NewDevice(cfg, nil, chain)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dev.OfferORAMKey([32]byte{}); !errors.Is(err, ErrNoORAMKey) {
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
