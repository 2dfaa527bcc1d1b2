package fleet

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/core"
	"hardtape/internal/session"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
)

// Backend is one execution target behind the gateway: an in-process
// Device or a remote Service endpoint. Implementations must be safe
// for concurrent use.
type Backend interface {
	// Name labels the backend's series, so it is distinct within a
	// gateway, and names the backend in errors.
	Name() string
	// Capacity is the backend's total HEVM slot count (dispatch weight).
	Capacity() int
	// FreeSlots reads live occupancy within a bounded wait. An error
	// marks the backend unhealthy; the gateway drains it and checks it
	// again with exponential backoff.
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
	down atomic.Bool
}

// errKilled is what a killed LocalBackend fails with.
var errKilled = errors.New("device killed")

// NewLocalBackend wraps a booted, synced device.
func NewLocalBackend(name string, dev *core.Device) *LocalBackend {
	return &LocalBackend{name: name, dev: dev}
}

// Kill simulates a device failure: every in-flight and future call
// fails with a *BackendError until Revive.
func (b *LocalBackend) Kill() { b.down.Store(true) }

// Revive restores a killed device.
func (b *LocalBackend) Revive() { b.down.Store(false) }

// Name implements Backend.
func (b *LocalBackend) Name() string { return b.name }

// Capacity implements Backend.
func (b *LocalBackend) Capacity() int { return b.dev.SlotCount() }

// FreeSlots implements Backend via the device's occupancy register.
func (b *LocalBackend) FreeSlots() (int, error) {
	if b.down.Load() {
		return 0, &BackendError{Backend: b.name, Err: errKilled}
	}
	return b.dev.FreeSlots(), nil
}

// Execute implements Backend. A kill that lands mid-run discards the
// result: a crashed device returns nothing trustworthy.
func (b *LocalBackend) Execute(ctx context.Context, bundle *types.Bundle) (*core.BundleResult, error) {
	if b.down.Load() {
		return nil, &BackendError{Backend: b.name, Err: errKilled}
	}
	res, err := b.dev.ExecuteContext(ctx, bundle)
	if b.down.Load() {
		return nil, &BackendError{Backend: b.name, Err: errKilled}
	}
	return res, err
}

// Close implements Backend (devices have no resources to release).
func (b *LocalBackend) Close() error { return nil }

// --- remote backend ---

// RemoteBackend fronts a core.Service over TCP with one attested,
// multiplexed session: bundles and occupancy queries interleave on it,
// up to Capacity() bundles in flight (the service dedicates an HEVM
// per concurrent bundle). A dead session is redialed lazily, so a
// restarted service re-admits without operator action.
type RemoteBackend struct {
	name     string
	addr     string
	verifier *attest.Verifier
	sign     bool
	// dialTimeout bounds the TCP connect, the handshake after it, and
	// each occupancy query.
	dialTimeout time.Duration

	// slots bounds the bundles in flight on the session; Close fills it
	// to wait out the ones still running.
	slots chan struct{}

	// tracer, when non-nil, is handed to every dialed core.Client so
	// bundle submissions propagate the caller's trace context over the
	// wire and adopt the service's returned span segments. NewGateway
	// wires it from its telemetry registry before any dial can start.
	tracer *telemetry.Tracer

	// mu guards the session. client is nil until first use and again
	// after a transport failure; ticket is its resumption ticket, taken
	// at handshake and unredeemed while the session lives, which the
	// next dial presents to skip the asymmetric handshake (a restarted
	// service rejects it and we fall back cold).
	mu     sync.Mutex
	client *core.Client
	ticket *session.ClientTicket
	closed bool
}

// NewRemoteBackend builds a backend for the service at addr that keeps
// up to slots bundles in flight on its one session. No connection is
// made until the first FreeSlots or bundle; the gateway's health check
// absorbs dial failures.
func NewRemoteBackend(name, addr string, verifier *attest.Verifier, sign bool, slots int) *RemoteBackend {
	if slots <= 0 {
		slots = 1
	}
	return &RemoteBackend{
		name:        name,
		addr:        addr,
		verifier:    verifier,
		sign:        sign,
		dialTimeout: 2 * time.Second,
		slots:       make(chan struct{}, slots),
	}
}

// Name implements Backend.
func (b *RemoteBackend) Name() string { return b.name }

// Capacity implements Backend: the bundles this gateway keeps in
// flight on the session.
func (b *RemoteBackend) Capacity() int { return cap(b.slots) }

// session returns the live client, dialing one if there is none: warm
// (ticket resume, zero asymmetric crypto) when a harvested ticket is on
// hand, cold attestation otherwise. A signing device mints no ticket,
// so its sessions always dial cold.
//
//hardtape:locksafe-ok b.mu serializes the one session's (re)dial so concurrent bundles share it; dial bounds every handshake it guards by dialTimeout
func (b *RemoteBackend) session() (*core.Client, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if b.client != nil {
		return b.client, nil
	}
	if ticket := b.ticket; ticket != nil {
		b.ticket = nil
		if err := b.verifier.Check(ticket.Serial); err != nil {
			// Revoked since the ticket was minted: fail closed, never
			// hand the device a provable live session.
			return nil, err
		}
		// A failed resume burned its stream (and the ticket); dial cold.
		if b.dial(ticket) == nil {
			return b.client, nil
		}
	}
	if err := b.dial(nil); err != nil {
		return nil, err
	}
	return b.client, nil
}

// dial connects and runs one handshake — a resume when ticket is
// non-nil, cold attestation otherwise — under a dialTimeout deadline
// that it clears after (each round trip is bounded by its caller's
// ctx), then installs the session. Call with b.mu held.
func (b *RemoteBackend) dial(ticket *session.ClientTicket) error {
	conn, err := net.DialTimeout("tcp", b.addr, b.dialTimeout)
	if err != nil {
		return err
	}
	var c *core.Client
	if err = conn.SetDeadline(time.Now().Add(b.dialTimeout)); err == nil {
		if ticket != nil {
			c, err = core.Resume(conn, ticket)
		} else {
			c, err = core.Dial(conn, b.verifier, b.sign)
		}
	}
	if err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return err
	}
	c.UseTracer(b.tracer)
	b.client, b.ticket = c, c.Ticket()
	return nil
}

// drop tears c down if it is still the live session.
func (b *RemoteBackend) drop(c *core.Client) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.client == c {
		c.Close()
		b.client = nil
	}
}

// FreeSlots implements Backend: it asks the service for its live
// occupancy over the session, within dialTimeout. This doubles as the
// health check — a dead service fails it and the session is dropped.
func (b *RemoteBackend) FreeSlots() (int, error) {
	c, err := b.session()
	if err != nil {
		return 0, &BackendError{Backend: b.name, Err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.dialTimeout)
	defer cancel()
	st, err := c.Status(ctx)
	if err != nil {
		b.drop(c)
		return 0, &BackendError{Backend: b.name, Err: err}
	}
	// The service may have more cores than we keep in flight (or fewer
	// free); dispatchable work is bounded by both.
	return min(st.FreeSlots, cap(b.slots)-len(b.slots)), nil
}

// Execute implements Backend: it takes a slot, honouring ctx while it
// waits, and runs the bundle on the shared session. ctx bounds the
// round trip too; its expiry abandons this bundle's reply, never the
// session the other bundles ride.
func (b *RemoteBackend) Execute(ctx context.Context, bundle *types.Bundle) (*core.BundleResult, error) {
	select {
	case b.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-b.slots }()

	var tr *core.TraceResult
	for attempt := 0; ; attempt++ {
		c, err := b.session()
		if err != nil {
			return nil, &BackendError{Backend: b.name, Err: err}
		}
		// Context-carrying variant: the dispatch span on ctx rides the
		// mux frame to the service, which returns its finished span
		// segment for adoption into our flight recorder.
		if tr, err = c.PreExecuteContext(ctx, bundle); err == nil {
			break
		}
		if ctx.Err() == nil {
			// Transport failure: the session is desynced; drop it. It may
			// simply be stale (service restarted underneath it), so
			// redial fresh once before giving up.
			b.drop(c)
			if attempt == 0 {
				continue
			}
		}
		return nil, &BackendError{Backend: b.name, Err: err}
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

// Close implements Backend: it waits out the bundles in flight by
// filling the slots, then tears the session down.
func (b *RemoteBackend) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	for i := 0; i < cap(b.slots); i++ {
		b.slots <- struct{}{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.client != nil {
		b.client.Close()
	}
	return nil
}
