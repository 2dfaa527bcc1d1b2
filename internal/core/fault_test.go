package core

import (
	"encoding/hex"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"hardtape/internal/attest"
	"hardtape/internal/baseline"
	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// errServerDown is the injected ORAM server fault.
var errServerDown = errors.New("injected server fault")

// faultServer is an ORAM server that fails every call from call
// failFrom on, counting calls only once armed (after the device's
// Sync). A negative failFrom never fails.
type faultServer struct {
	oram.Server
	armed    atomic.Bool
	calls    atomic.Int64
	failFrom int64
}

func (f *faultServer) fault() error {
	if !f.armed.Load() {
		return nil
	}
	if n := f.calls.Add(1) - 1; f.failFrom >= 0 && n >= f.failFrom {
		return errServerDown
	}
	return nil
}

func (f *faultServer) ReadPaths(leaves []uint64) ([][][]byte, error) {
	if err := f.fault(); err != nil {
		return nil, err
	}
	return f.Server.ReadPaths(leaves)
}

func (f *faultServer) WritePaths(leaves []uint64, paths [][][]byte) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.Server.WritePaths(leaves, paths)
}

// faultyORAMDevice builds and syncs a one-core device whose only ORAM
// shard is a TCP server over a faultServer, then arms the fault.
func faultyORAMDevice(t *testing.T, chain *node.Node, mfr *attest.Manufacturer, mutate func(*Config), failFrom int64) (*Device, *faultServer) {
	t.Helper()
	inner, err := oram.NewMemServer(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	fs := &faultServer{Server: inner, failFrom: failFrom}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := oram.ServeTCP(fs, l)
	t.Cleanup(func() { srv.Close() })
	cfg := DefaultConfig()
	cfg.HEVMs = 1
	cfg.RemoteORAMAddr = srv.Addr().String()
	mutate(&cfg)
	dev, err := NewDevice(cfg, mfr, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	return dev, fs
}

// faultWorld is the small world both fault tests run on, and a 4-tx
// searcher bundle over it (distinct senders, half of them conflicting).
func faultWorld(t *testing.T) (*node.Node, *types.Bundle) {
	t.Helper()
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
	bundle, err := w.MEVBundle(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return chain, bundle
}

// TestORAMFaultSweep: an SP that fails its ORAM server at any point of
// a bundle — every call from call n on, for every n up to the bundle's
// call count — gets a bundle that completes or fails with ErrAborted,
// never a crashed device. The -ESO device runs 4 speculative lanes, so
// the fault lands on a lane, on a commit-lane re-execution or between
// commits.
func TestORAMFaultSweep(t *testing.T) {
	chain, bundle := faultWorld(t)
	eso := func(c *Config) { c.Features, c.Lanes = ConfigESO, 4 }
	dev, fs := faultyORAMDevice(t, chain, nil, eso, -1)
	if res, err := dev.Execute(bundle); err != nil || res.Aborted != nil {
		t.Fatalf("fault-free run: %v, %+v", err, res)
	}
	calls := fs.calls.Load()
	if calls == 0 {
		t.Fatal("the bundle made no ORAM server call")
	}
	t.Logf("fault-free bundle: %d server calls", calls)
	for n := int64(0); n < calls; n++ {
		dev, _ := faultyORAMDevice(t, chain, nil, eso, n)
		res, err := dev.Execute(bundle)
		switch {
		case err != nil && !errors.Is(err, ErrAborted):
			t.Errorf("fault from call %d of %d: %v, want ErrAborted", n, calls, err)
		case err == nil && res.Aborted != nil:
			t.Errorf("fault from call %d of %d: aborted with %v", n, calls, res.Aborted)
		}
	}
}

// TestORAMFaultSpansNameNoKey: the flight recorder is served on the
// SP-scraped /traces, so a span's error must not name the world-state
// key whose read failed. With tracing on, ORAM faults spread over a
// -full bundle's server calls (account, storage, code and prefetch
// reads) reach the recorder through a Service; no span error contains
// the hex of an address, storage slot or code hash the bundle touches.
func TestORAMFaultSpansNameNoKey(t *testing.T) {
	chain, bundle := faultWorld(t)
	keys := touchedKeys(t, chain, bundle)
	mfr, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	verifier := attest.NewVerifier(mfr.PublicKey(), ImageMeasurement())
	full := func(reg *telemetry.Registry) func(*Config) {
		return func(c *Config) { c.Features, c.Lanes, c.Telemetry = ConfigFull, 2, reg }
	}
	dev, fs := faultyORAMDevice(t, chain, mfr, full(nil), -1)
	if _, err := dev.Execute(bundle); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for n := int64(0); n < fs.calls.Load(); n += 9 {
		reg := telemetry.NewRegistry()
		reg.EnableTracing("device", 0)
		t.Cleanup(reg.FlightRecorder().Close)
		dev, _ := faultyORAMDevice(t, chain, mfr, full(reg), n)
		clientConn, serverConn := net.Pipe()
		go func() {
			defer serverConn.Close()
			//hardtape:faulterr-ok the session ends when the test closes the pipe; its EOF is the shutdown signal
			_ = NewService(dev).ServeConn(serverConn)
		}()
		c, err := Dial(clientConn, verifier, true)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.PreExecute(bundle)
		clientConn.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range reg.FlightRecorder().Traces() {
			for _, s := range trace.Spans {
				if s.Err == "" {
					continue
				}
				failed++
				for _, k := range keys {
					if strings.Contains(strings.ToLower(s.Err), k) {
						t.Errorf("fault from call %d: span %s error %q names key %s", n, s.Name, s.Err, k)
					}
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("the recorder kept no failed span")
	}
}

// touchedKeys runs bundle on the baseline and returns the lower-case
// hex of every address, storage slot and code hash it touches.
func touchedKeys(t *testing.T, chain *node.Node, bundle *types.Bundle) []string {
	t.Helper()
	blockCtx := workload.NewBlockContext(&chain.Head().Header)
	ref, err := baseline.NewGeth(chain.State(), blockCtx).ExecuteBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[types.Address]bool{blockCtx.Coinbase: true}
	var keys []string
	for _, tx := range ref.Trace.Txs {
		for _, c := range tx.Calls {
			addrs[c.From], addrs[c.To] = true, true
		}
		for _, s := range tx.Storage {
			addrs[s.Address] = true
			keys = append(keys, hex.EncodeToString(s.Slot[:]))
		}
	}
	for a := range addrs {
		keys = append(keys, hex.EncodeToString(a[:]))
		if acct, ok := chain.State().Account(a); ok && acct.CodeHash != types.EmptyCodeHash {
			keys = append(keys, hex.EncodeToString(acct.CodeHash[:]))
		}
	}
	return keys
}
