package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/core"
	"hardtape/internal/oram"
	"hardtape/internal/session"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
)

// Backend is one execution target behind the gateway: an in-process
// Device or a remote Service endpoint. Implementations must be safe
// for concurrent use.
type Backend interface {
	// Name identifies the backend in stats and errors.
	Name() string
	// Capacity is the backend's total HEVM slot count (dispatch weight).
	Capacity() int
	// FreeSlots probes live occupancy without blocking. An error marks
	// the backend unhealthy; the gateway drains it and re-probes with
	// exponential backoff.
	FreeSlots() (int, error)
	// Execute runs one bundle. Infrastructure failures must be wrapped
	// in *BackendError so the gateway fails over; bundle-fault errors
	// (invalid txs) pass through to the submitter.
	Execute(ctx context.Context, bundle *types.Bundle) (*core.BundleResult, error)
	// Close releases backend resources.
	Close() error
}

// --- in-process backend ---

// LocalBackend adapts an in-process *core.Device. Kill/Revive inject
// device failure for failover tests and demos (the software stand-in
// for yanking a chip's power).
type LocalBackend struct {
	name string
	dev  *core.Device

	mu   sync.Mutex
	down error
}

// NewLocalBackend wraps a booted, synced device.
func NewLocalBackend(name string, dev *core.Device) *LocalBackend {
	return &LocalBackend{name: name, dev: dev}
}

// Kill simulates a device failure: every in-flight and future call
// fails with a *BackendError until Revive.
func (b *LocalBackend) Kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down = fmt.Errorf("device killed")
}

// Revive restores a killed device.
func (b *LocalBackend) Revive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down = nil
}

func (b *LocalBackend) failed() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.down
}

// Name implements Backend.
func (b *LocalBackend) Name() string { return b.name }

// Capacity implements Backend.
func (b *LocalBackend) Capacity() int { return b.dev.SlotCount() }

// FreeSlots implements Backend via the device's occupancy register.
func (b *LocalBackend) FreeSlots() (int, error) {
	if err := b.failed(); err != nil {
		return 0, &BackendError{Backend: b.name, Err: err}
	}
	return b.dev.FreeSlots(), nil
}

// Execute implements Backend. A kill that lands mid-run discards the
// result: a crashed device returns nothing trustworthy.
func (b *LocalBackend) Execute(ctx context.Context, bundle *types.Bundle) (*core.BundleResult, error) {
	if err := b.failed(); err != nil {
		return nil, &BackendError{Backend: b.name, Err: err}
	}
	res, err := b.dev.ExecuteContext(ctx, bundle)
	if killed := b.failed(); killed != nil {
		return nil, &BackendError{Backend: b.name, Err: killed}
	}
	return res, err
}

// ORAMStats exposes the device's ORAM counters for fleet.Stats.
func (b *LocalBackend) ORAMStats() oram.Stats { return b.dev.ORAMStats() }

// Close implements Backend (devices have no resources to release).
func (b *LocalBackend) Close() error { return nil }

// --- remote backend ---

// RemoteBackend fronts a core.Service over TCP. It keeps one attested
// session per slot (the service dedicates an HEVM per concurrent
// bundle) plus a control session for occupancy probes; dead
// connections are redialed lazily, so a restarted service re-admits
// without operator action.
type RemoteBackend struct {
	name        string
	addr        string
	verifier    core.ReportVerifier
	cache       *session.VerdictCache
	sign        bool
	sessions    int
	dialTimeout time.Duration

	pool chan *remoteConn

	// tracer, when non-nil, is handed to every dialed core.Client so
	// bundle submissions propagate the caller's trace context over the
	// wire and adopt the service's returned span segments. Set before
	// first use (NewGateway wires it from its telemetry registry).
	tracer *telemetry.Tracer

	mu     sync.Mutex
	probe  *remoteConn
	closed bool
}

// remoteConn is one pooled session slot; conn/client are nil until
// first use (and again after a transport failure). ticket is the
// rotated resumption ticket harvested from the previous session on
// this slot — a redial presents it and skips the asymmetric handshake.
type remoteConn struct {
	conn   net.Conn
	client *core.Client
	ticket *session.ClientTicket
}

func (rc *remoteConn) reset() {
	if rc.client != nil {
		// The session dies but its ticket survives: it was minted at
		// handshake and is still unredeemed, so the next connect on this
		// slot resumes warm (a restarted service rejects it and we fall
		// back cold).
		if t := rc.client.Ticket(); t != nil {
			rc.ticket = t
		}
	}
	if rc.conn != nil {
		rc.conn.Close()
	}
	rc.conn, rc.client = nil, nil
}

// NewRemoteBackend builds a backend for the service at addr with the
// given parallel session count. No connection is made until the first
// probe or bundle; the gateway's health check absorbs dial failures.
func NewRemoteBackend(name, addr string, verifier *attest.Verifier, sign bool, sessions int) *RemoteBackend {
	if sessions <= 0 {
		sessions = 1
	}
	// Cold dials share a verdict cache: after the first session against
	// a device+image, later dials skip the manufacturer-chain verify.
	cache := session.NewVerdictCache(nil, 0)
	b := &RemoteBackend{
		name:        name,
		addr:        addr,
		verifier:    &session.CachingVerifier{Verifier: verifier, Cache: cache},
		cache:       cache,
		sign:        sign,
		sessions:    sessions,
		dialTimeout: 2 * time.Second,
		pool:        make(chan *remoteConn, sessions),
	}
	for i := 0; i < sessions; i++ {
		b.pool <- &remoteConn{}
	}
	return b
}

// SetTracer installs the tracer future sessions propagate trace
// contexts with (dial concurrency starts only after the backend is
// handed to a gateway, so setting it at wiring time is race-free).
func (b *RemoteBackend) SetTracer(tr *telemetry.Tracer) { b.tracer = tr }

// Name implements Backend.
func (b *RemoteBackend) Name() string { return b.name }

// Capacity implements Backend: the number of parallel sessions this
// gateway holds against the service.
func (b *RemoteBackend) Capacity() int { return b.sessions }

// connect dials one session: warm (ticket resume, zero asymmetric
// crypto) when the slot holds a live ticket, cold attestation
// otherwise. Signing sessions always dial cold — resumed channels
// deliberately never carry the per-message ECDSA layer.
func (b *RemoteBackend) connect(rc *remoteConn) error {
	if rc.client != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", b.addr, b.dialTimeout)
	if err != nil {
		return err
	}
	if ticket := rc.ticket; ticket != nil && !b.sign {
		rc.ticket = nil
		if err := b.cache.Check(ticket.Serial); err != nil {
			// Revoked since the ticket was minted: fail closed, never
			// hand the device a provable live session.
			conn.Close()
			return err
		}
		if client, rerr := core.Resume(conn, ticket); rerr == nil {
			client.SetTracer(b.tracer)
			rc.conn, rc.client = conn, client
			return nil
		}
		// Resume burned the stream (and the ticket); redial cold.
		conn.Close()
		if conn, err = net.DialTimeout("tcp", b.addr, b.dialTimeout); err != nil {
			return err
		}
	}
	client, err := core.Dial(conn, b.verifier, b.sign)
	if err != nil {
		conn.Close()
		return err
	}
	client.SetTracer(b.tracer)
	rc.conn, rc.client = conn, client
	return nil
}

// VerdictCache exposes the backend's attestation-verdict cache (for
// revocation: VerdictCache().Revoke(serial) blocks future sessions).
func (b *RemoteBackend) VerdictCache() *session.VerdictCache { return b.cache }

// FreeSlots implements Backend: it asks the service for its live
// occupancy over the control session. This doubles as the health
// check — a dead service fails the probe.
//
//hardtape:locksafe-ok b.mu exists to serialize the probe session; the deadline bounds the I/O it guards
func (b *RemoteBackend) FreeSlots() (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, &BackendError{Backend: b.name, Err: ErrClosed}
	}
	if b.probe == nil {
		b.probe = &remoteConn{}
	}
	if err := b.connect(b.probe); err != nil {
		return 0, &BackendError{Backend: b.name, Err: err}
	}
	if err := b.probe.conn.SetDeadline(time.Now().Add(b.dialTimeout)); err != nil {
		b.probe.reset()
		return 0, &BackendError{Backend: b.name, Err: err}
	}
	st, err := b.probe.client.Status()
	if derr := b.probe.conn.SetDeadline(time.Time{}); derr != nil && err == nil {
		err = derr
	}
	if err != nil {
		b.probe.reset()
		return 0, &BackendError{Backend: b.name, Err: err}
	}
	// The service may have more cores than we hold sessions for (or
	// fewer free); dispatchable work is bounded by both.
	free := st.FreeSlots
	if idle := len(b.pool); idle < free {
		free = idle
	}
	return free, nil
}

// Execute implements Backend: it runs the bundle on one pooled
// session, honouring ctx while waiting for a session and while the
// bundle is in flight (via the connection deadline).
func (b *RemoteBackend) Execute(ctx context.Context, bundle *types.Bundle) (*core.BundleResult, error) {
	var rc *remoteConn
	select {
	case rc = <-b.pool:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { b.pool <- rc }()

	var tr *core.TraceResult
	for attempt := 0; ; attempt++ {
		if err := b.connect(rc); err != nil {
			return nil, &BackendError{Backend: b.name, Err: err}
		}
		var err error
		if dl, ok := ctx.Deadline(); ok {
			err = rc.conn.SetDeadline(dl)
		}
		if err == nil {
			// Context-carrying variant: the dispatch span on ctx rides
			// the mux frame to the service, which returns its finished
			// span segment for adoption into our flight recorder.
			tr, err = rc.client.PreExecuteContext(ctx, bundle)
		}
		if err == nil {
			err = rc.conn.SetDeadline(time.Time{})
		}
		if err != nil {
			// Transport failure (a failed deadline set counts: the
			// socket is unusable): the session is desynced; drop it.
			// A pooled session may simply be stale (service restarted
			// underneath it), so redial fresh once before giving up.
			rc.reset()
			if attempt == 0 && ctx.Err() == nil {
				continue
			}
			return nil, &BackendError{Backend: b.name, Err: err}
		}
		break
	}
	if tr.Failed {
		// The bundle's own fault, as the service's executor reported it:
		// a plain error, like LocalBackend's, so the gateway neither
		// fails over nor counts the bundle completed.
		return nil, errors.New(tr.AbortReason)
	}
	res := &core.BundleResult{
		Trace:       tr.Trace,
		VirtualTime: tr.VirtualTime,
		GasUsed:     tr.GasUsed,
	}
	if tr.AbortReason != "" {
		res.Aborted = errors.New(tr.AbortReason)
	}
	return res, nil
}

// Close implements Backend: it tears down every session.
func (b *RemoteBackend) Close() error {
	b.mu.Lock()
	b.closed = true
	if b.probe != nil {
		b.probe.reset()
	}
	b.mu.Unlock()
	for i := 0; i < b.sessions; i++ {
		rc := <-b.pool
		rc.reset()
	}
	return nil
}
