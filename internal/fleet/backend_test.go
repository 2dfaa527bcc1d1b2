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
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

func TestLocalBackendKillRevive(t *testing.T) {
	r := newRig(t, 12, config(core.ConfigRaw, 2))
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

	mu      sync.Mutex
	l       net.Listener
	conns   []net.Conn
	accepts int
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
		rs.accepts++
		rs.mu.Unlock()
		go func() {
			defer conn.Close()
			_ = svc.ServeConn(conn)
		}()
	}
}

// accepted is the number of connections accepted so far.
func (rs *remoteService) accepted() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.accepts
}

// sever closes every live session, leaving the listener up.
func (rs *remoteService) sever() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, c := range rs.conns {
		c.Close()
	}
	rs.conns = nil
}

// kill closes the listener and every live session.
func (rs *remoteService) kill() {
	rs.mu.Lock()
	rs.l.Close()
	rs.mu.Unlock()
	rs.sever()
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
	r := newRig(t, 8, config(core.ConfigES, 2))
	svc := core.NewService(r.devices[0])
	rs := serveRemote(t, svc)

	rb := NewRemoteBackend("remote-0", rs.addr, r.verifier(), true, 2)
	defer rb.Close()

	// The status probe reflects the remote device's occupancy.
	free, err := rb.FreeSlots()
	if err != nil || free != 2 {
		t.Fatalf("remote probe: free=%d err=%v", free, err)
	}

	res, err := rb.Execute(context.Background(), r.transferBundle(t, 0, 42))
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
	if _, err := rb.Execute(context.Background(), r.transferBundle(t, 2, 42)); !errors.As(err, &be) {
		t.Fatalf("dead-service execute: %v", err)
	}

	// Restart on the same address: lazy redial recovers both paths
	// without rebuilding the backend.
	rs.restart(svc)
	if _, err := rb.FreeSlots(); err != nil {
		t.Fatalf("restarted probe: %v", err)
	}
	if _, err := rb.Execute(context.Background(), r.transferBundle(t, 3, 42)); err != nil {
		t.Fatalf("restarted execute: %v", err)
	}
}

// peakExec is a device that holds each bundle a while and records the
// most bundles it ever had in flight at once.
type peakExec struct {
	*core.Device
	hold time.Duration

	mu        sync.Mutex
	cur, peak int
}

func (p *peakExec) ExecuteContext(ctx context.Context, bundle *types.Bundle) (*core.BundleResult, error) {
	p.mu.Lock()
	p.cur++
	p.peak = max(p.peak, p.cur)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.cur--
		p.mu.Unlock()
	}()
	time.Sleep(p.hold)
	return p.Device.ExecuteContext(ctx, bundle)
}

// TestRemoteBackendOneSession: bundles and occupancy queries share one
// multiplexed connection, and the backend's slot count — not the
// device's eight HEVMs — bounds the bundles in flight on it.
func TestRemoteBackendOneSession(t *testing.T) {
	r := newRig(t, 12, config(core.ConfigRaw, 8))
	dev := r.devices[0]
	exec := &peakExec{Device: dev, hold: 50 * time.Millisecond}
	rs := serveRemote(t, core.NewServiceFor(exec, dev.Booted(), false))
	rb := NewRemoteBackend("remote", rs.addr, r.verifier(), false, 4)
	defer rb.Close()

	const bundles = 8
	var wg sync.WaitGroup
	errs := make(chan error, bundles)
	for i := 0; i < bundles; i++ {
		bundle := r.transferBundle(t, i, uint64(i+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rb.Execute(context.Background(), bundle); err != nil {
				errs <- err
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if _, err := rb.FreeSlots(); err != nil {
			t.Errorf("FreeSlots during bundles: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("execute: %v", err)
	}
	if n := rs.accepted(); n != 1 {
		t.Errorf("service accepted %d connections, want 1", n)
	}
	exec.mu.Lock()
	defer exec.mu.Unlock()
	if exec.peak > 4 || exec.peak < 2 {
		t.Errorf("peak bundles in flight on the device = %d, want 2..4 (interleaved, bounded by 4 slots)", exec.peak)
	}
}

// TestRemoteBackendWarmRedial: when the service drops the session, the
// next bundle redials warm from the session's ticket — no asymmetric
// operation on either side.
func TestRemoteBackendWarmRedial(t *testing.T) {
	r := newRig(t, 12, config(core.ConfigRaw, 1))
	rs := serveRemote(t, core.NewService(r.devices[0]))
	rb := NewRemoteBackend("remote", rs.addr, r.verifier(), false, 1)
	defer rb.Close()

	if _, err := rb.Execute(context.Background(), r.transferBundle(t, 0, 1)); err != nil {
		t.Fatal(err)
	}
	rs.sever()
	before := attest.AsymOps()
	if _, err := rb.Execute(context.Background(), r.transferBundle(t, 1, 2)); err != nil {
		t.Fatalf("execute after the service dropped the session: %v", err)
	}
	if ops := attest.AsymOps() - before; ops != 0 {
		t.Fatalf("redial performed %d asymmetric ops, want 0 (warm resume)", ops)
	}
	if n := rs.accepted(); n != 2 {
		t.Fatalf("service accepted %d connections, want 2", n)
	}
}

// TestRemoteBackendRevokedDevice: once the verifier revokes the
// device, the backend neither presents the ticket it harvested nor
// re-attests cold — both fail closed with ErrDeviceRevoked.
func TestRemoteBackendRevokedDevice(t *testing.T) {
	r := newRig(t, 12, config(core.ConfigRaw, 1))
	dev, verifier := r.devices[0], r.verifier()
	rs := serveRemote(t, core.NewService(dev))
	rb := NewRemoteBackend("remote", rs.addr, verifier, false, 1)
	defer rb.Close()

	if _, err := rb.Execute(context.Background(), r.transferBundle(t, 0, 1)); err != nil {
		t.Fatal(err)
	}
	rs.sever()
	verifier.Revoke(dev.Booted().Serial())

	if _, err := rb.Execute(context.Background(), r.transferBundle(t, 1, 2)); !errors.Is(err, attest.ErrDeviceRevoked) {
		t.Fatalf("resume with a revoked device's ticket: got %v, want ErrDeviceRevoked", err)
	}
	if n := rs.accepted(); n != 1 {
		t.Fatalf("service accepted %d connections, want 1 (the ticket is never presented)", n)
	}
	if _, err := rb.Execute(context.Background(), r.transferBundle(t, 2, 3)); !errors.Is(err, attest.ErrDeviceRevoked) {
		t.Fatalf("cold redial to a revoked device: got %v, want ErrDeviceRevoked", err)
	}
	if n := rs.accepted(); n != 2 {
		t.Fatalf("service accepted %d connections, want 2 (the cold dial attests, then is refused)", n)
	}
}

// within fails the test unless fn returns inside d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestRemoteBackendSilentPeerBounded: a remote device that accepts and
// never answers costs the gateway bounded time — construction, a
// submission that finds no healthy backend, and shutdown all return.
func TestRemoteBackendSilentPeerBounded(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	mfr, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRemoteBackend("silent", l.Addr().String(), attest.NewVerifier(mfr.PublicKey(), core.ImageMeasurement()), false, 2)
	rb.dialTimeout = 200 * time.Millisecond

	var g *Gateway
	within(t, time.Second, "NewGateway", func() {
		g = NewGateway(Config{HealthInterval: 10 * time.Millisecond}, rb)
	})
	if b := g.Stats().Backends[0]; b.Healthy || b.LastError == "" {
		t.Errorf("silent backend: healthy=%v lastError=%q, want unhealthy with an error", b.Healthy, b.LastError)
	}
	within(t, time.Second, "Submit", func() {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		_, err = g.Submit(ctx, &types.Bundle{Txs: []*types.Transaction{new(types.Transaction)}})
	})
	if !errors.Is(err, ErrNoBackends) {
		t.Errorf("submit: %v, want ErrNoBackends", err)
	}
	within(t, time.Second, "Close", func() { g.Close() })
}

func TestGatewayWithRemoteBackendFailover(t *testing.T) {
	// One local + one remote backend; the remote dies mid-run and the
	// local picks up its bundles.
	r := newRig(t, 12, config(core.ConfigRaw, 1), config(core.ConfigRaw, 1))
	rs := serveRemote(t, core.NewService(r.devices[1]))
	remote := NewRemoteBackend("remote", rs.addr, r.verifier(), false, 1)

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
	r := newRig(t, 12, config(core.ConfigRaw, 1), config(core.ConfigRaw, 1))
	rs := serveRemote(t, core.NewService(r.devices[1]))
	remote := NewRemoteBackend("remote", rs.addr, r.verifier(), false, 1)

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
