package fleet

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/core"
	"hardtape/internal/node"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

func TestLocalBackendKillRevive(t *testing.T) {
	r := buildFleetRig(t, 1, 2)
	lb := r.backends[0]

	free, err := lb.FreeSlots()
	if err != nil || free != 2 {
		t.Fatalf("healthy probe: free=%d err=%v", free, err)
	}
	if _, err := lb.Execute(context.Background(), r.transferBundle(t, 0, 5)); err != nil {
		t.Fatalf("healthy execute: %v", err)
	}

	lb.Kill()
	var be *BackendError
	if _, err := lb.FreeSlots(); !errors.As(err, &be) {
		t.Fatalf("killed probe: %v", err)
	}
	if _, err := lb.Execute(context.Background(), r.transferBundle(t, 1, 5)); !errors.As(err, &be) {
		t.Fatalf("killed execute: %v", err)
	}

	lb.Revive()
	if _, err := lb.Execute(context.Background(), r.transferBundle(t, 2, 5)); err != nil {
		t.Fatalf("revived execute: %v", err)
	}
}

// remoteService is a killable core.Service over real TCP: it tracks
// accepted connections so "killing the device" also severs
// established sessions, like a machine going down.
type remoteService struct {
	t    *testing.T
	addr string

	mu    sync.Mutex
	l     net.Listener
	conns []net.Conn
}

func serveRemote(t *testing.T, svc *core.Service) *remoteService {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &remoteService{t: t, addr: l.Addr().String(), l: l}
	go rs.acceptLoop(svc, l)
	t.Cleanup(rs.kill)
	return rs
}

func (rs *remoteService) acceptLoop(svc *core.Service, l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		rs.mu.Lock()
		rs.conns = append(rs.conns, conn)
		rs.mu.Unlock()
		go func() {
			defer conn.Close()
			_ = svc.ServeConn(conn)
		}()
	}
}

// kill closes the listener and every live session.
func (rs *remoteService) kill() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.l.Close()
	for _, c := range rs.conns {
		c.Close()
	}
	rs.conns = nil
}

// restart reopens the listener on the same address.
func (rs *remoteService) restart(svc *core.Service) {
	rs.t.Helper()
	l, err := net.Listen("tcp", rs.addr)
	if err != nil {
		rs.t.Fatal(err)
	}
	rs.mu.Lock()
	rs.l = l
	rs.mu.Unlock()
	go rs.acceptLoop(svc, l)
}

func TestRemoteBackendOverTCP(t *testing.T) {
	mfr, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 8
	wcfg.Tokens = 2
	wcfg.DEXes = 1
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Features = core.ConfigES
	cfg.HEVMs = 2
	dev, err := core.NewDevice(cfg, mfr, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(dev)
	rs := serveRemote(t, svc)

	verifier := attest.NewVerifier(mfr.PublicKey(), core.ImageMeasurement())
	rb := NewRemoteBackend("remote-0", rs.addr, verifier, true, 2)
	defer rb.Close()

	// The status probe reflects the remote device's occupancy.
	free, err := rb.FreeSlots()
	if err != nil || free != 2 {
		t.Fatalf("remote probe: free=%d err=%v", free, err)
	}

	bundle := func(sender int) *types.Bundle {
		token := w.Tokens[0]
		tx, err := w.SignedTxAt(w.EOAs[sender], 0, &token, 0,
			workload.CalldataTransfer(w.EOAs[1], 42), 200_000)
		if err != nil {
			t.Fatal(err)
		}
		return &types.Bundle{Txs: []*types.Transaction{tx}}
	}
	res, err := rb.Execute(context.Background(), bundle(0))
	if err != nil {
		t.Fatalf("remote execute: %v", err)
	}
	if res.Aborted != nil || len(res.Trace.Txs) != 1 {
		t.Fatalf("remote result: %+v", res)
	}

	// Kill the service: probe and execute fail with BackendError.
	rs.kill()
	var be *BackendError
	if _, err := rb.FreeSlots(); !errors.As(err, &be) {
		t.Fatalf("dead-service probe: %v", err)
	}
	if _, err := rb.Execute(context.Background(), bundle(2)); !errors.As(err, &be) {
		t.Fatalf("dead-service execute: %v", err)
	}

	// Restart on the same address: lazy redial recovers both paths
	// without rebuilding the backend.
	rs.restart(svc)
	if _, err := rb.FreeSlots(); err != nil {
		t.Fatalf("restarted probe: %v", err)
	}
	if _, err := rb.Execute(context.Background(), bundle(3)); err != nil {
		t.Fatalf("restarted execute: %v", err)
	}
}

// serveRemoteDevice puts one more single-HEVM -raw device over the rig's
// world behind a core.Service on real TCP, with its own manufacturer,
// and returns the service and the verifier a RemoteBackend dials it with.
func (r *fleetRig) serveRemoteDevice(t *testing.T) (*remoteService, *attest.Verifier) {
	t.Helper()
	mfr, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(r.world.State)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Features = core.ConfigRaw
	cfg.HEVMs = 1
	dev, err := core.NewDevice(cfg, mfr, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	return serveRemote(t, core.NewService(dev)), attest.NewVerifier(mfr.PublicKey(), core.ImageMeasurement())
}

func TestGatewayWithRemoteBackendFailover(t *testing.T) {
	// One local + one remote backend; the remote dies mid-run and the
	// local picks up its bundles.
	r := buildFleetRig(t, 1, 1)
	rs, verifier := r.serveRemoteDevice(t)
	remote := NewRemoteBackend("remote", rs.addr, verifier, false, 1)

	g := NewGateway(Config{QueueDepth: 8, HealthInterval: 10 * time.Millisecond}, r.backends[0], remote)
	defer g.Close()

	for i := 0; i < 6; i++ {
		if i == 3 {
			rs.kill()
		}
		if _, err := g.Submit(context.Background(), r.transferBundle(t, i, uint64(i+1))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st := g.Stats()
	if st.Backends[0].Dispatched == 0 {
		t.Fatal("local backend never dispatched")
	}
}

// TestBundleFaultSameThroughLocalAndRemote pins that a backend's kind
// does not change a bundle's outcome: an invalid-nonce bundle is the
// same plain Submit error, counted failed with no failover, whether the
// device sits in-process or behind a core.Service, and a Memory
// Overflow bundle completes as Aborted on both.
func TestBundleFaultSameThroughLocalAndRemote(t *testing.T) {
	r := buildFleetRig(t, 1, 1)
	rs, verifier := r.serveRemoteDevice(t)
	remote := NewRemoteBackend("remote", rs.addr, verifier, false, 1)

	// The second transaction reuses the first's nonce.
	stale := r.transferBundle(t, 0, 1)
	stale.Txs = append(stale.Txs, r.transferBundle(t, 0, 2).Txs[0])
	hog := r.world.MemoryHog
	tx, err := r.world.SignedTxAt(r.world.EOAs[2], 0, &hog, 0, workload.CalldataUint(600_000), 25_000_000)
	if err != nil {
		t.Fatal(err)
	}
	overflow := &types.Bundle{Txs: []*types.Transaction{tx}}

	type outcome struct {
		fault                                            string
		completed, failed, retries, dispatched, failures uint64
		healthy                                          bool
	}
	got := map[string]outcome{}
	for _, b := range []Backend{r.backends[0], remote} {
		g := NewGateway(Config{QueueDepth: 4, BundleDeadline: 10 * time.Second}, b)
		_, err := g.Submit(context.Background(), stale)
		var be *BackendError
		if err == nil || errors.As(err, &be) {
			t.Fatalf("%s: invalid-nonce bundle: err = %v, want a plain bundle-fault error", b.Name(), err)
		}
		fault := err.Error()
		res, err := g.Submit(context.Background(), overflow)
		if err != nil || res.Aborted == nil || !strings.Contains(res.Aborted.Error(), "memory overflow") {
			t.Fatalf("%s: overflow bundle: res = %+v, err = %v, want Aborted", b.Name(), res, err)
		}
		st := g.Stats()
		got[b.Name()] = outcome{fault, st.Completed, st.Failed, st.Retries,
			st.Backends[0].Dispatched, st.Backends[0].Failures, st.Backends[0].Healthy}
		g.Close()
	}
	want := outcome{got["dev-0"].fault, 1, 1, 0, 2, 0, true}
	if !strings.Contains(want.fault, "nonce mismatch") {
		t.Errorf("local fault = %q, want a nonce mismatch", want.fault)
	}
	for name, o := range got {
		if o != want {
			t.Errorf("%s: outcome %+v, want %+v", name, o, want)
		}
	}
}
