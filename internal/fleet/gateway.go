package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hardtape/internal/core"
	"hardtape/internal/session"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
)

// Config tunes the gateway's admission and health policies.
type Config struct {
	// QueueDepth bounds concurrently admitted bundles (waiting plus in
	// flight); submissions beyond it get ErrOverloaded immediately.
	// 0 means twice the fleet's total slot capacity.
	QueueDepth int
	// BundleDeadline caps a bundle's admission-to-completion time;
	// 0 disables the per-bundle timeout.
	BundleDeadline time.Duration
	// HealthInterval is the probe cadence for healthy backends. A
	// failed backend is probed again after half an interval, the delay
	// doubling per consecutive failure up to 50 intervals.
	HealthInterval time.Duration
	// ColdHandshakeLimit bounds concurrent cold (attest+DHKE)
	// handshakes on services fronting this gateway; warm ticket resumes
	// bypass the gate, so a reconnect burst never queues behind cold
	// dials. 0 means unlimited.
	ColdHandshakeLimit int
	// Telemetry, when non-nil, registers the gateway's series there so
	// they export alongside the rest of the pipeline. When nil the
	// gateway keeps a private registry: its series are its scheduling
	// state, so one registry holds one gateway, whose backend names
	// are distinct.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns production-ish gateway settings.
func DefaultConfig() Config {
	return Config{
		BundleDeadline: 10 * time.Second,
		HealthInterval: 100 * time.Millisecond,
	}
}

// dispatchRetries is how many times one accepted bundle may fail over
// to another backend after a BackendError.
const dispatchRetries = 3

// backendState is the gateway's scheduling view of one backend.
type backendState struct {
	b Backend
	// idx is the backend's position in the list given to NewGateway;
	// dispatch spans name their backend by it.
	idx int
	// lastFree is the most recent occupancy probe, decremented on
	// dispatch and restored on completion between probes.
	lastFree  int
	backoff   time.Duration
	nextProbe time.Time
	// m holds the backend's series: its health, in-flight count and
	// dispatch/failure counts live there and nowhere else.
	m *backendMetrics
}

// healthy reports whether the gateway may dispatch to the backend.
func (bs *backendState) healthy() bool { return bs.m.healthy.Value() == 1 }

// effectiveFree is the slots the gateway may still dispatch to.
func (bs *backendState) effectiveFree() int {
	free := bs.b.Capacity() - int(bs.m.inflight.Value())
	if bs.lastFree < free {
		free = bs.lastFree
	}
	if free < 0 {
		free = 0
	}
	return free
}

// Gateway fronts a pool of backends: bounded admission, least-busy
// dispatch, health-checked failover. It implements core.BundleExecutor
// so a core.Service can expose a whole fleet over the wire protocol.
type Gateway struct {
	cfg Config

	mu       sync.Mutex
	backends []*backendState
	admitted int // waiting + in flight
	wake     chan struct{}
	closed   bool

	// reg is Config.Telemetry, or a private registry when that is nil:
	// the gateway's series hold its state either way.
	reg    *telemetry.Registry
	tm     *gwMetrics
	adm    *session.Admission
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// SessionAdmission returns the gateway's cold-handshake gate (nil when
// unlimited) for wiring into the core.Service that fronts it.
func (g *Gateway) SessionAdmission() *session.Admission { return g.adm }

// NewGateway wires the backends and starts the health monitor. Each
// backend is probed once synchronously so the initial healthy set is
// accurate (an unreachable remote starts drained, not trusted).
func NewGateway(cfg Config, backends ...Backend) *Gateway {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultConfig().HealthInterval
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	g := &Gateway{
		cfg:    cfg,
		wake:   make(chan struct{}),
		reg:    reg,
		tm:     newGwMetrics(reg),
		adm:    session.NewAdmission(cfg.ColdHandshakeLimit),
		stopCh: make(chan struct{}),
	}
	capacity := 0
	for _, b := range backends {
		// Remote backends inherit the gateway's tracer so cross-process
		// bundles keep one trace id (no-op when tracing is disabled).
		if rb, ok := b.(*RemoteBackend); ok && rb.tracer == nil {
			rb.tracer = cfg.Telemetry.Tracer()
		}
		bs := &backendState{b: b, idx: len(g.backends), m: newBackendMetrics(reg, b.Name())}
		free, err := b.FreeSlots()
		if err == nil {
			bs.m.healthy.Set(1)
			bs.lastFree = free
			bs.nextProbe = time.Now().Add(cfg.HealthInterval)
		} else {
			bs.m.healthy.Set(0)
			bs.m.failures.Inc()
			bs.backoff = g.backoff(0)
			bs.nextProbe = time.Now().Add(bs.backoff)
		}
		g.backends = append(g.backends, bs)
		capacity += b.Capacity()
	}
	if g.cfg.QueueDepth <= 0 {
		g.cfg.QueueDepth = 2 * capacity
		if g.cfg.QueueDepth == 0 {
			g.cfg.QueueDepth = 1
		}
	}
	g.wg.Add(1)
	go g.healthLoop()
	return g
}

// ExecuteContext implements core.BundleExecutor, so a core.Service can
// front the whole fleet: it pre-executes one bundle on the least-busy
// healthy backend. It returns ErrOverloaded without queuing when the
// admission bound is hit, fails over on backend faults, and respects
// ctx plus the configured per-bundle deadline while waiting for
// capacity.
func (g *Gateway) ExecuteContext(ctx context.Context, bundle *types.Bundle) (res *core.BundleResult, err error) {
	if bundle == nil || len(bundle.Txs) == 0 {
		return nil, core.ErrBundleEmpty
	}
	// Continues the submitter's distributed trace (the fronting
	// core.Service puts its span on ctx); queue wait and dispatch each
	// become their own span under this one.
	sp, ctx := g.reg.StartSpan(ctx, "gateway.submit")
	sp.AddInt("txs", int64(len(bundle.Txs)))
	defer sp.End(nil, &err)

	if err := g.admit(); err != nil {
		return nil, err
	}
	defer g.settle(&err)

	if g.cfg.BundleDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.BundleDeadline)
		defer cancel()
	}

	bs, err := g.queueWait(ctx)
	for retries := 0; err == nil; {
		if res, err = g.dispatch(ctx, bs, bundle); err == nil {
			return res, nil
		}
		var be *BackendError
		if !errors.As(err, &be) {
			// The bundle's own fault (invalid tx, context expiry while
			// holding a slot): no failover, surface it.
			break
		}
		// Infrastructure fault: release drained the backend; retry the
		// bundle on a survivor.
		retries++
		if ctx.Err() != nil || retries > dispatchRetries {
			break
		}
		g.tm.waiting.Add(1)
		g.tm.retries.Inc()
		bs, err = g.acquire(ctx)
	}
	return nil, err
}

// admit takes one place in the bounded queue. A full queue rejects
// instead of blocking (the typed backpressure signal the single-device
// Execute never had).
func (g *Gateway) admit() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	if g.admitted >= g.cfg.QueueDepth {
		g.tm.rejected.Inc()
		return ErrOverloaded
	}
	g.admitted++
	g.tm.waiting.Add(1)
	g.tm.admitted.Inc()
	return nil
}

// settle gives an admitted bundle's place back and counts its final
// outcome. ExecuteContext defers it right after admit, so every way out —
// completion, bundle fault, exhausted retries, deadline, shutdown —
// settles exactly once and admitted = completed + failed holds.
func (g *Gateway) settle(errp *error) {
	g.mu.Lock()
	g.admitted--
	g.mu.Unlock()
	if *errp == nil {
		g.tm.completed.Inc()
	} else {
		g.tm.failed.Inc()
	}
}

// queueWait is a bundle's first wait for capacity, the admission-to-slot
// interval: one "gateway.queue_wait" span times it for the wait
// histogram and stamps the bucket's exemplar, so a p99 queue-wait
// bucket points at a concrete trace. Waits that end in a deadline or
// shutdown are observed too. (Failover re-acquisitions are not queue
// wait; they go through acquire directly.)
func (g *Gateway) queueWait(ctx context.Context) (bs *backendState, err error) {
	sp, ctx := g.reg.StartSpan(ctx, "gateway.queue_wait")
	defer sp.End(g.tm.queueWait, &err)
	return g.acquire(ctx)
}

// acquire blocks until a backend slot is reserved, ctx expires, or the
// gateway closes.
func (g *Gateway) acquire(ctx context.Context) (*backendState, error) {
	for {
		bs, wake := g.reserve()
		if bs != nil {
			return bs, nil
		}
		var err error
		select {
		case <-wake:
			continue
		case <-ctx.Done():
			err = fmt.Errorf("%w: %w", ErrNoBackends, ctx.Err())
		case <-g.stopCh:
			err = ErrClosed
		}
		g.tm.waiting.Add(-1)
		return nil, err
	}
}

// dispatch runs the bundle on its reserved backend. The
// "gateway.dispatch" span rides ctx into the backend: an in-process
// device (or the remote client's wire context) parents its
// "device.bundle" span on it. The span names its backend by index, in
// the order the backends were given to NewGateway.
func (g *Gateway) dispatch(ctx context.Context, bs *backendState, bundle *types.Bundle) (*core.BundleResult, error) {
	sp, ctx := g.reg.StartSpan(ctx, "gateway.dispatch")
	sp.AddInt("backend", int64(bs.idx))
	res, err := bs.b.Execute(ctx, bundle)
	sp.End(nil, &err)
	g.release(bs, err)
	return res, err
}

// reserve picks the healthy backend with the most effective free
// slots, reserving one. When none qualifies it returns the current
// wake channel to wait on.
func (g *Gateway) reserve() (*backendState, chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var best *backendState
	for _, bs := range g.backends {
		if !bs.healthy() {
			continue
		}
		// In-process probes are a channel-length read; refresh on the
		// dispatch path so scheduling sees the device's true occupancy
		// (other clients may share the device outside this gateway).
		if lb, ok := bs.b.(*LocalBackend); ok {
			//hardtape:locksafe-ok LocalBackend.FreeSlots is an in-process channel-length read, not network I/O
			if free, err := lb.FreeSlots(); err == nil {
				bs.lastFree = free
			}
		}
		if bs.effectiveFree() <= 0 {
			continue
		}
		switch {
		case best == nil,
			bs.effectiveFree() > best.effectiveFree(),
			bs.effectiveFree() == best.effectiveFree() &&
				bs.m.dispatched.Value() < best.m.dispatched.Value():
			best = bs
		}
	}
	if best == nil {
		return nil, g.wake
	}
	best.m.inflight.Add(1)
	best.lastFree--
	g.tm.waiting.Add(-1)
	return best, nil
}

// release returns a reservation, records the outcome, and wakes
// waiters (a slot just opened — or a failure changed the fleet shape).
func (g *Gateway) release(bs *backendState, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	bs.m.inflight.Add(-1)
	if bs.lastFree < bs.b.Capacity() {
		bs.lastFree++
	}
	var be *BackendError
	if errors.As(err, &be) {
		bs.m.failures.Inc()
		bs.m.healthy.Set(0)
		bs.backoff = g.backoff(0)
		bs.nextProbe = time.Now().Add(bs.backoff)
	} else {
		// A completed bundle and a bundle fault each consumed a dispatch.
		bs.m.dispatched.Inc()
	}
	g.broadcastLocked()
}

// backoff is the re-probe delay after a failure, given the previous
// delay (0 after a success): half the health interval at first,
// doubling up to 50 intervals — 50 ms and 5 s at the default 100 ms.
func (g *Gateway) backoff(prev time.Duration) time.Duration {
	if prev <= 0 {
		return g.cfg.HealthInterval / 2
	}
	return min(2*prev, 50*g.cfg.HealthInterval)
}

// broadcastLocked wakes every submission waiting for capacity.
func (g *Gateway) broadcastLocked() {
	close(g.wake)
	g.wake = make(chan struct{})
}

// healthLoop probes backends: healthy ones every HealthInterval,
// failed ones on their exponential-backoff schedule, re-admitting as
// soon as a probe succeeds.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	tick := g.cfg.HealthInterval / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case <-t.C:
		}
		now := time.Now()
		var due []*backendState
		g.mu.Lock()
		for _, bs := range g.backends {
			if !now.Before(bs.nextProbe) {
				due = append(due, bs)
			}
		}
		g.mu.Unlock()
		for _, bs := range due {
			free, err := bs.b.FreeSlots()
			g.mu.Lock()
			if err != nil {
				if bs.healthy() {
					bs.m.failures.Inc()
				}
				bs.m.healthy.Set(0)
				bs.backoff = g.backoff(bs.backoff)
				bs.nextProbe = time.Now().Add(bs.backoff)
			} else {
				readmitted := !bs.healthy()
				bs.m.healthy.Set(1)
				bs.backoff = 0
				bs.lastFree = free
				bs.nextProbe = time.Now().Add(g.cfg.HealthInterval)
				if readmitted {
					g.broadcastLocked()
				}
			}
			g.mu.Unlock()
		}
	}
}

// Close drains the gateway: waiting submissions fail with ErrClosed,
// the health loop stops, and backends are released.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	close(g.stopCh)
	g.wg.Wait()
	var first error
	for _, bs := range g.backends {
		if err := bs.b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FreeSlots implements core.BundleExecutor: dispatchable slots across
// healthy backends.
func (g *Gateway) FreeSlots() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	free := 0
	for _, bs := range g.backends {
		if bs.healthy() {
			free += bs.effectiveFree()
		}
	}
	return free
}

// SlotCount implements core.BundleExecutor: total fleet capacity.
func (g *Gateway) SlotCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, bs := range g.backends {
		n += bs.b.Capacity()
	}
	return n
}
