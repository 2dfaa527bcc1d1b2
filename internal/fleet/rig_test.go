package fleet

import (
	"fmt"
	"testing"

	"hardtape/internal/attest"
	"hardtape/internal/core"
	"hardtape/internal/node"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// rig is one generated world, one manufacturer and the devices synced
// over the world's node chain. Every test in this package that needs a
// device takes it from newRig.
type rig struct {
	world *workload.World
	// mfr certifies every device of the rig.
	mfr *attest.Manufacturer
	// devices are the devices newRig was given configs for, in order,
	// and backends puts devices[i] in process as LocalBackend "dev-i".
	devices  []*core.Device
	backends []*LocalBackend
}

// newRig builds a world of eoas EOAs, two tokens and one DEX pool, its
// chain and a manufacturer, then one synced device per config. Worlds
// are never shared between tests: the generator's random source and
// nonce tracking are mutable.
func newRig(t testing.TB, eoas int, cfgs ...core.Config) *rig {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.EOAs, wcfg.Tokens, wcfg.DEXes = eoas, 2, 1
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	mfr, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{world: w, mfr: mfr}
	for i, cfg := range cfgs {
		dev, err := core.NewDevice(cfg, mfr, chain)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Sync(); err != nil {
			t.Fatal(err)
		}
		r.devices = append(r.devices, dev)
		r.backends = append(r.backends, NewLocalBackend(fmt.Sprintf("dev-%d", i), dev))
	}
	return r
}

// config is core.DefaultConfig with the given features and HEVM count.
func config(features core.Features, hevms int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Features, cfg.HEVMs = features, hevms
	return cfg
}

// verifier pins r's manufacturer and the device image.
func (r *rig) verifier() *attest.Verifier {
	return attest.NewVerifier(r.mfr.PublicKey(), core.ImageMeasurement())
}

// tracedRegistry is a registry that traces as proc; its flight recorder
// closes when the test ends.
func tracedRegistry(t testing.TB, proc string) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.EnableTracing(proc, 0)
	t.Cleanup(reg.FlightRecorder().Close)
	return reg
}

// transferBundle is one ERC-20 transfer of amount from EOA sender at
// nonce 0, so any number of them stay valid against the chain.
func (r *rig) transferBundle(t testing.TB, sender int, amount uint64) *types.Bundle {
	t.Helper()
	token := r.world.Tokens[0]
	from := r.world.EOAs[sender%len(r.world.EOAs)]
	tx, err := r.world.SignedTxAt(from, 0, &token, 0,
		workload.CalldataTransfer(r.world.EOAs[1], amount), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	return &types.Bundle{Txs: []*types.Transaction{tx}}
}
