package main

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"hardtape"
	"hardtape/internal/baseline"
	"hardtape/internal/core"
	"hardtape/internal/fleet"
	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/workload"
)

// front says what a workload's clients dial.
type front int

const (
	// frontDevice: client → device service.
	frontDevice front = iota
	// frontGatewayRemote: client → gateway service → RemoteBackend
	// sessions → device service (every layer on the bundle path).
	frontGatewayRemote
	// frontGatewayLocal: client → gateway service → LocalBackend device.
	frontGatewayLocal
)

// topology is one workload's system under test, built in this process
// over real loopback TCP listeners.
type topology struct {
	spec *workloadSpec

	world    *workload.World
	chain    *node.Node
	verifier *hardtape.Verifier
	dev      *core.Device
	geth     *baseline.Geth

	// oramServers are the harness-owned wrappers under oram.ServeTCP,
	// one per remote shard (nil without ORAM).
	oramServers []*timedServer
	gateway     *fleet.Gateway

	// devAddr is the device service's address ("" when the gateway
	// fronts a LocalBackend and no device service was started yet);
	// frontAddr is what the workload's clients dial.
	devAddr   string
	frontAddr string

	// syncDur is the time Device.Sync took; setupDur the whole set-up
	// up to and including the first client dial.
	syncDur  time.Duration
	setupDur time.Duration

	listeners []*trackedListener
	serveDone []chan struct{}
}

// sign reports whether sessions carry the per-message ECDSA layer.
func (t *topology) sign() bool { return t.spec.Features.Sign }

// buildTopology stands the workload's system up and times it: world,
// node, ORAM shard servers, device, Sync through the ORAM, service
// listeners, gateway, and one client dial (closed again) — what a
// provider pays before the first bundle can be served.
func buildTopology(spec *workloadSpec, seed int64) (_ *topology, err error) {
	start := time.Now()
	t := &topology{spec: spec}
	defer func() {
		if err != nil {
			t.Close()
		}
	}()

	wcfg := spec.World
	wcfg.Seed = seed
	if t.world, err = workload.BuildWorld(wcfg); err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	if spec.prepareWorld != nil {
		if err := spec.prepareWorld(t.world); err != nil {
			return nil, fmt.Errorf("prepare world: %w", err)
		}
	}
	if t.chain, err = node.New(t.world.State); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	t.geth = baseline.NewGeth(t.world.State, workload.NewBlockContext(&t.chain.Head().Header))
	mfr, err := hardtape.NewManufacturer()
	if err != nil {
		return nil, fmt.Errorf("manufacturer: %w", err)
	}
	t.verifier = hardtape.NewVerifier(mfr)

	cfg := deviceConfig(spec, spec.Features, spec.Lanes)
	if spec.Shards > 0 {
		addrs := make([]string, spec.Shards)
		perShard := (cfg.ORAMCapacity + uint64(spec.Shards) - 1) / uint64(spec.Shards)
		for i := range addrs {
			mem, err := oram.NewMemServer(perShard)
			if err != nil {
				return nil, fmt.Errorf("oram shard %d: %w", i, err)
			}
			l, err := t.listen()
			if err != nil {
				return nil, err
			}
			ts := &timedServer{inner: mem}
			t.oramServers = append(t.oramServers, ts)
			// ServeTCP owns its accept loop; the tracked listener lets
			// Close end the per-connection goroutines it spawns.
			oram.ServeTCP(ts, l)
			addrs[i] = l.Addr().String()
		}
		cfg.RemoteORAMAddr = strings.Join(addrs, ",")
	}
	if t.dev, err = core.NewDevice(cfg, mfr, t.chain); err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	syncStart := time.Now()
	if err := t.dev.Sync(); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	t.syncDur = time.Since(syncStart)

	if spec.Front != frontGatewayLocal {
		if t.frontAddr, err = t.serveDevice(); err != nil {
			return nil, err
		}
	}
	if spec.Front != frontDevice {
		var backend hardtape.Backend = hardtape.NewLocalBackend("dev-0", t.dev)
		if spec.Front == frontGatewayRemote {
			backend = hardtape.NewRemoteBackend("dev-0", t.devAddr, t.verifier, t.sign(), spec.HEVMs)
		}
		fcfg := hardtape.DefaultFleetConfig()
		fcfg.QueueDepth = spec.QueueDepth
		fcfg.ColdHandshakeLimit = spec.ColdHandshakeLimit
		t.gateway = hardtape.NewGateway(fcfg, backend)
		if t.frontAddr, err = t.serve(hardtape.NewFleetService(t.gateway, t.dev, t.sign())); err != nil {
			return nil, err
		}
	}

	// First dial: the set-up is not done until a client can attest.
	s, err := t.dial(t.frontAddr, nil)
	if err != nil {
		return nil, fmt.Errorf("first dial: %w", err)
	}
	s.Close()
	t.setupDur = time.Since(start)
	return t, nil
}

// deviceConfig is the device sizing every device of a workload shares;
// features and lanes vary between the workload's device and its ladder
// twins.
func deviceConfig(spec *workloadSpec, feat core.Features, lanes int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Features = feat
	cfg.HEVMs = spec.HEVMs
	cfg.Lanes = lanes
	if feat.ORAMStorage || feat.ORAMCode {
		cfg.ORAMShards = spec.Shards
	}
	return cfg
}

// twin builds and syncs a second device over the same chain with other
// features or lanes — a ladder rung's device. In-process ORAM shards
// replace the remote ones.
func (t *topology) twin(feat core.Features, lanes int) (*core.Device, error) {
	dev, err := core.NewDevice(deviceConfig(t.spec, feat, lanes), nil, t.chain)
	if err != nil {
		return nil, err
	}
	if err := dev.Sync(); err != nil {
		return nil, err
	}
	return dev, nil
}

// listen opens a tracked loopback listener owned by the topology.
func (t *topology) listen() (*trackedListener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	tl := newTrackedListener(l)
	t.listeners = append(t.listeners, tl)
	return tl, nil
}

// serve exposes a service on a fresh listener and returns its address.
func (t *topology) serve(svc *core.Service) (string, error) {
	l, err := t.listen()
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	t.serveDone = append(t.serveDone, done)
	go func() {
		defer close(done)
		// Returns net.ErrClosed when Close shuts the listener.
		_ = svc.ServeListener(l)
	}()
	return l.Addr().String(), nil
}

// serveDevice starts the device service if it is not up yet (a
// LocalBackend topology has none until the ladder rung that bypasses
// the gateway asks for it) and returns its address.
func (t *topology) serveDevice() (string, error) {
	if t.devAddr != "" {
		return t.devAddr, nil
	}
	addr, err := t.serve(core.NewService(t.dev))
	if err != nil {
		return "", err
	}
	t.devAddr = addr
	return addr, nil
}

// session is one client connection with the attested client on top.
type session struct {
	client *hardtape.Client
}

func (s *session) Close() {
	// Client.Close closes the conn through the mux.
	_ = s.client.Close()
}

// connect opens the TCP conn of a session. rec, when non-nil, is put
// under the client to time and count what crosses the socket.
func connect(addr string, rec *connRecorder) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		conn = &recordedConn{Conn: conn, rec: rec}
	}
	return conn, nil
}

// dial connects and attests cold.
func (t *topology) dial(addr string, rec *connRecorder) (*session, error) {
	conn, err := connect(addr, rec)
	if err != nil {
		return nil, err
	}
	client, err := hardtape.Dial(conn, t.verifier, t.sign())
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &session{client: client}, nil
}

// resume connects and redeems a ticket (zero asymmetric operations).
func (t *topology) resume(addr string, ticket *hardtape.SessionTicket, rec *connRecorder) (*session, error) {
	conn, err := connect(addr, rec)
	if err != nil {
		return nil, err
	}
	client, err := hardtape.Resume(conn, ticket)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &session{client: client}, nil
}

// Close tears the topology down and waits for every goroutine the
// harness can reach: gateway health loop and backend sessions, accept
// loops, and every per-connection server goroutine (the tracked
// listeners close the accepted conns under them).
func (t *topology) Close() {
	if t.gateway != nil {
		_ = t.gateway.Close()
	}
	// Reverse order: service listeners first, ORAM shard listeners last,
	// so no in-flight bundle loses its store mid-access.
	for i := len(t.listeners) - 1; i >= 0; i-- {
		t.listeners[i].Shutdown()
	}
	for _, done := range t.serveDone {
		<-done
	}
}

// trackedListener remembers the conns it accepted so Shutdown can end
// the serving goroutines the system under test spawned per connection
// (core.Service and oram.TCPServer both close the conn when their
// goroutine returns, which is the completion signal used here).
type trackedListener struct {
	net.Listener
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	conns  map[*trackedConn]struct{}
}

func newTrackedListener(l net.Listener) *trackedListener {
	tl := &trackedListener{Listener: l, conns: make(map[*trackedConn]struct{})}
	tl.cond = sync.NewCond(&tl.mu)
	return tl
}

func (l *trackedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		c.Close()
		return nil, net.ErrClosed
	}
	tc := &trackedConn{Conn: c, l: l}
	l.conns[tc] = struct{}{}
	return tc, nil
}

// Shutdown stops accepting, closes every accepted conn, and waits until
// each conn's serving goroutine has closed its end.
func (l *trackedListener) Shutdown() {
	_ = l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for c := range l.conns {
		_ = c.Conn.Close()
	}
	for len(l.conns) > 0 {
		l.cond.Wait()
	}
}

type trackedConn struct {
	net.Conn
	l *trackedListener
}

func (c *trackedConn) Close() error {
	c.l.mu.Lock()
	delete(c.l.conns, c)
	c.l.cond.Broadcast()
	c.l.mu.Unlock()
	return c.Conn.Close()
}
