package core

import (
	"net"
	"reflect"
	"testing"

	"hardtape/internal/attest"
	"hardtape/internal/baseline"
	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/telemetry"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// rig is one generated world, the node chain over it, one manufacturer
// and the devices synced over that chain. Every test in this package
// that needs a device takes it from newRig or rig.newDevice; only the
// tests of NewDevice's refusals call NewDevice themselves.
type rig struct {
	world *workload.World
	chain *node.Node
	// mfr certifies every device of the rig.
	mfr *attest.Manufacturer
	// devices are the devices newRig was given configs for, in order;
	// device is the first of them and svc the Service in front of it.
	devices []*Device
	device  *Device
	svc     *Service
}

// worldShape sizes a generated world: its EOAs and ERC-20 tokens. Every
// world has one DEX pool. Worlds are never shared between tests: the
// generator's random source and nonce tracking are mutable.
type worldShape struct{ eoas, tokens int }

// The shapes most tests run on.
var (
	// deviceWorld has a distinct sender for each bundle of a device test.
	deviceWorld = worldShape{eoas: 12, tokens: 2}
	// serviceWorld is the world behind a Service.
	serviceWorld = worldShape{eoas: 8, tokens: 2}
	// laneWorld has 16 senders: one conflict-free transaction each in
	// the largest bundles the lane tests speculate.
	laneWorld = worldShape{eoas: 16, tokens: 2}
)

// newRig builds a world of the given shape, its chain and a
// manufacturer, then one synced device per config.
func newRig(t testing.TB, shape worldShape, cfgs ...Config) *rig {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.EOAs, wcfg.Tokens, wcfg.DEXes = shape.eoas, shape.tokens, 1
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
	r := &rig{world: w, chain: chain, mfr: mfr}
	for _, cfg := range cfgs {
		r.devices = append(r.devices, r.newDevice(t, cfg))
	}
	if len(r.devices) > 0 {
		r.device = r.devices[0]
		r.svc = NewService(r.device)
	}
	return r
}

// newDevice builds one more device over r's chain and syncs it.
func (r *rig) newDevice(t testing.TB, cfg Config) *Device {
	t.Helper()
	dev, err := NewDevice(cfg, r.mfr, r.chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	return dev
}

// config is DefaultConfig with the given features, HEVM count and
// speculative lanes.
func config(features Features, hevms, lanes int) Config {
	cfg := DefaultConfig()
	cfg.Features, cfg.HEVMs, cfg.Lanes = features, hevms, lanes
	return cfg
}

// verifier pins r's manufacturer and the device image.
func (r *rig) verifier() *attest.Verifier {
	return attest.NewVerifier(r.mfr.PublicKey(), ImageMeasurement())
}

// serveORAM serves srv over loopback TCP until the test ends and
// returns its address, for Config.RemoteORAMAddr.
func serveORAM(t testing.TB, srv oram.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := oram.ServeTCP(srv, l)
	t.Cleanup(func() { s.Close() })
	return s.Addr().String()
}

// memServer is an in-memory ORAM server of the given capacity in pages.
func memServer(t testing.TB, capacity uint64) *oram.MemServer {
	t.Helper()
	s, err := oram.NewMemServer(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tracedRegistry is a registry that traces as proc; its flight recorder
// closes when the test ends.
func tracedRegistry(t testing.TB, proc string) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.EnableTracing(proc, 0)
	t.Cleanup(reg.FlightRecorder().Close)
	return reg
}

// oracle runs b on baseline.Geth over the chain's current head.
func (r *rig) oracle(t testing.TB, b *types.Bundle) *BundleResult {
	t.Helper()
	res, err := r.geth().ExecuteBundle(b)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return oracleResult(res)
}

// geth is the baseline.Geth oracle over the chain's current head.
func (r *rig) geth() *baseline.Geth {
	return baseline.NewGeth(r.chain.State(), workload.NewBlockContext(&r.chain.Head().Header))
}

// oracleResult is an oracle run in the form assertParity compares.
func oracleResult(res *baseline.Result) *BundleResult {
	return &BundleResult{Trace: res.Trace, GasUsed: res.GasUsed}
}

// assertParity is the trace-parity check (§VI-B): got must have
// aborted exactly when want did, used the same gas, traced the same
// number of transactions, and each transaction must show an empty
// tracer.Diff against want's; with exact, each must also be
// reflect.DeepEqual to want's. A mismatch in abort, gas or length stops
// the test; a diverging transaction is reported and the rest compared.
func assertParity(t testing.TB, name string, want, got *BundleResult, exact bool) {
	t.Helper()
	if (want.Aborted == nil) != (got.Aborted == nil) {
		t.Fatalf("%s: aborted %v, want %v", name, got.Aborted, want.Aborted)
	}
	if got.GasUsed != want.GasUsed || len(got.Trace.Txs) != len(want.Trace.Txs) {
		t.Fatalf("%s: gas %d / %d txs, want %d / %d", name,
			got.GasUsed, len(got.Trace.Txs), want.GasUsed, len(want.Trace.Txs))
	}
	for i := range want.Trace.Txs {
		if diffs := tracer.Diff(want.Trace.Txs[i], got.Trace.Txs[i]); len(diffs) > 0 {
			t.Errorf("%s: tx %d diverges: %v", name, i, diffs)
		}
		if exact && !reflect.DeepEqual(want.Trace.Txs[i], got.Trace.Txs[i]) {
			t.Errorf("%s: tx %d traces not byte-identical", name, i)
		}
	}
}
