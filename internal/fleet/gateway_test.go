package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hardtape/internal/core"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
)

// fakeBackend is a controllable Backend for scheduler tests.
type fakeBackend struct {
	name     string
	capacity int

	mu          sync.Mutex
	down        error
	inflight    int
	maxInflight int
	executed    int
	// block, when non-nil, stalls Execute until it is closed.
	block chan struct{}
}

func newFakeBackend(name string, capacity int) *fakeBackend {
	return &fakeBackend{name: name, capacity: capacity}
}

func (f *fakeBackend) Name() string  { return f.name }
func (f *fakeBackend) Capacity() int { return f.capacity }
func (f *fakeBackend) Close() error  { return nil }

func (f *fakeBackend) setDown(err error) {
	f.mu.Lock()
	f.down = err
	f.mu.Unlock()
}

func (f *fakeBackend) FreeSlots() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down != nil {
		return 0, &BackendError{Backend: f.name, Err: f.down}
	}
	return f.capacity - f.inflight, nil
}

func (f *fakeBackend) Execute(ctx context.Context, b *types.Bundle) (*core.BundleResult, error) {
	f.mu.Lock()
	if f.down != nil {
		err := f.down
		f.mu.Unlock()
		return nil, &BackendError{Backend: f.name, Err: err}
	}
	f.inflight++
	if f.inflight > f.maxInflight {
		f.maxInflight = f.inflight
	}
	block := f.block
	f.mu.Unlock()

	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			f.mu.Lock()
			f.inflight--
			f.mu.Unlock()
			return nil, ctx.Err()
		}
	}

	f.mu.Lock()
	f.inflight--
	f.executed++
	down := f.down
	f.mu.Unlock()
	if down != nil {
		return nil, &BackendError{Backend: f.name, Err: down}
	}
	return &core.BundleResult{}, nil
}

func testBundle() *types.Bundle {
	return &types.Bundle{Txs: []*types.Transaction{{}}}
}

func TestSubmitRejectsWhenOverloaded(t *testing.T) {
	fb := newFakeBackend("a", 1)
	fb.block = make(chan struct{})
	g := NewGateway(Config{QueueDepth: 2, BundleDeadline: 5 * time.Second}, fb)
	defer g.Close()

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := g.Submit(context.Background(), testBundle())
			results <- err
		}()
	}
	// Wait until both are admitted (one in flight, one waiting).
	waitFor(t, func() bool {
		st := g.Stats()
		return st.InFlight == 1 && st.Waiting == 1
	})

	if _, err := g.Submit(context.Background(), testBundle()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity submit: err = %v, want ErrOverloaded", err)
	}

	close(fb.block)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted bundle failed: %v", err)
		}
	}
	st := g.Stats()
	if st.Rejected != 1 || st.Completed != 2 {
		t.Fatalf("stats: rejected=%d completed=%d, want 1/2", st.Rejected, st.Completed)
	}
}

func TestSubmitDeadlineWhileQueued(t *testing.T) {
	fb := newFakeBackend("a", 1)
	fb.block = make(chan struct{})
	defer close(fb.block)
	g := NewGateway(Config{QueueDepth: 8, BundleDeadline: time.Hour}, fb)
	defer g.Close()

	go g.Submit(context.Background(), testBundle()) // occupies the only slot
	waitFor(t, func() bool { return g.Stats().InFlight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	_, err := g.Submit(ctx, testBundle())
	if !errors.Is(err, ErrNoBackends) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued past deadline: err = %v, want ErrNoBackends wrapping DeadlineExceeded", err)
	}
}

func TestLeastBusyDispatch(t *testing.T) {
	a := newFakeBackend("a", 3)
	b := newFakeBackend("b", 1)
	a.block = make(chan struct{})
	b.block = make(chan struct{})
	g := NewGateway(Config{QueueDepth: 8, BundleDeadline: 5 * time.Second}, a, b)
	defer g.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Submit(context.Background(), testBundle()); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
		// Serialize reservations so the free-slot ordering is
		// deterministic: a(3) a(2) a(1)≻tie b(1) → a, then b.
		waitFor(t, func() bool { return g.Stats().InFlight == i+1 })
	}
	close(a.block)
	close(b.block)
	wg.Wait()

	if a.maxInflight != 3 || b.maxInflight != 1 {
		t.Fatalf("dispatch spread: a=%d b=%d, want 3/1", a.maxInflight, b.maxInflight)
	}
}

func TestFailoverOnBackendError(t *testing.T) {
	a := newFakeBackend("a", 2) // preferred (more free slots)
	b := newFakeBackend("b", 1)
	g := NewGateway(Config{QueueDepth: 8, BundleDeadline: 5 * time.Second}, a, b)
	defer g.Close()
	// Yank a after the initial probe admitted it: dispatch goes to a,
	// fails, and must fail over to b.
	a.setDown(fmt.Errorf("yanked"))

	res, err := g.Submit(context.Background(), testBundle())
	if err != nil || res == nil {
		t.Fatalf("failover submit: res=%v err=%v", res, err)
	}
	st := g.Stats()
	if st.Backends[0].Failures == 0 || st.Backends[0].Healthy {
		t.Fatalf("backend a not drained: %+v", st.Backends[0])
	}
	if st.Backends[1].Dispatched != 1 {
		t.Fatalf("backend b dispatched = %d, want 1", st.Backends[1].Dispatched)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
}

func TestBundleFaultDoesNotFailOver(t *testing.T) {
	a := newFakeBackend("a", 1)
	g := NewGateway(Config{QueueDepth: 4, BundleDeadline: time.Second}, a)
	defer g.Close()
	// An empty bundle is the submitter's fault: rejected up front, no
	// backend involved, no drain.
	if _, err := g.Submit(context.Background(), &types.Bundle{}); !errors.Is(err, core.ErrBundleEmpty) {
		t.Fatalf("empty bundle: %v", err)
	}
	if st := g.Stats(); !st.Backends[0].Healthy || st.Backends[0].Failures != 0 {
		t.Fatalf("healthy backend was drained: %+v", st.Backends[0])
	}
}

func TestHealthBackoffAndReadmit(t *testing.T) {
	a := newFakeBackend("a", 1)
	a.setDown(fmt.Errorf("powered off"))
	g := NewGateway(Config{
		QueueDepth:       4,
		BundleDeadline:   50 * time.Millisecond,
		HealthInterval:   10 * time.Millisecond,
		HealthBackoff:    10 * time.Millisecond,
		HealthBackoffMax: 40 * time.Millisecond,
	}, a)
	defer g.Close()

	if _, err := g.Submit(context.Background(), testBundle()); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("all-down fleet: err = %v, want ErrNoBackends", err)
	}
	// Let a few backoff probes fail, then revive.
	time.Sleep(60 * time.Millisecond)
	a.setDown(nil)
	waitFor(t, func() bool { return g.Stats().Backends[0].Healthy })

	if _, err := g.Submit(context.Background(), testBundle()); err != nil {
		t.Fatalf("re-admitted backend: %v", err)
	}
}

// TestCloseUnblocksWaiters closes a gateway with queued submitters:
// each fails with ErrClosed, and once the in-flight bundle drains every
// admitted bundle has settled exactly once — admitted = completed +
// failed (the shutdown arm used to return without counting).
func TestCloseUnblocksWaiters(t *testing.T) {
	a := newFakeBackend("a", 1)
	a.block = make(chan struct{})
	g := NewGateway(Config{QueueDepth: 4, BundleDeadline: 10 * time.Second}, a)

	const waiters = 3
	inflight := make(chan error, 1)
	go func() {
		_, err := g.Submit(context.Background(), testBundle())
		inflight <- err
	}()
	waitFor(t, func() bool { return g.Stats().InFlight == 1 })
	errCh := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := g.Submit(context.Background(), testBundle())
			errCh <- err
		}()
	}
	waitFor(t, func() bool { return g.Stats().Waiting == waiters })

	go g.Close()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter unblocked with %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("waiter stuck after Close")
		}
	}
	close(a.block)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight bundle at shutdown: %v", err)
	}
	st := g.Stats()
	if st.Admitted != waiters+1 || st.Completed != 1 || st.Failed != waiters {
		t.Fatalf("admitted %d = completed %d + failed %d does not hold (want %d = 1 + %d)",
			st.Admitted, st.Completed, st.Failed, waiters+1, waiters)
	}
}

// TestGatewaySpanErrLandsOnFailingLayer injects a fault into one
// gateway layer at a time and checks whose span carries the Err: a
// backend fault fails that dispatch span only (the failover succeeds, so
// the submit span is clean), and a deadline while queued fails the
// queue-wait span and the submit it belongs to, with no dispatch span.
// Both waits feed the queue-wait histogram, traced ones with exemplars.
func TestGatewaySpanErrLandsOnFailingLayer(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.EnableTracing("gateway", 8)
	defer reg.FlightRecorder().Close()
	a, b := newFakeBackend("a", 2), newFakeBackend("b", 1)
	g := NewGateway(Config{QueueDepth: 8, BundleDeadline: 5 * time.Second, Telemetry: reg}, a, b)
	defer g.Close()

	// traced runs one Submit under a fresh root and returns the trace.
	traced := func(ctx context.Context) (*telemetry.Trace, error) {
		root, ctx := reg.StartSpan(reg.ContinueTrace(ctx, telemetry.SpanContext{}), "test.root")
		_, err := g.Submit(ctx, testBundle())
		root.End(nil, nil)
		trace := reg.FlightRecorder().Lookup(root.Context().Trace)
		if trace == nil {
			t.Fatalf("trace %s not kept", root.Context().Trace)
		}
		return trace, err
	}
	failed := func(trace *telemetry.Trace) (names []string) {
		for _, s := range trace.Spans {
			if s.Err == "" {
				continue
			}
			name := s.Name
			for _, at := range s.Attrs {
				if at.Key == "backend" {
					name += ":" + at.Str
				}
			}
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}

	a.setDown(fmt.Errorf("yanked")) // dispatch prefers a (more free slots)
	trace, err := traced(context.Background())
	if err != nil {
		t.Fatalf("failover submit: %v", err)
	}
	if got := failed(trace); !reflect.DeepEqual(got, []string{"gateway.dispatch:a"}) {
		t.Errorf("backend fault: spans with Err %v, want only gateway.dispatch:a", got)
	}
	if len(trace.Spans) != 5 { // root, submit, queue_wait, dispatch a, dispatch b
		t.Errorf("failover trace has %d spans, want 5", len(trace.Spans))
	}

	// b is the only healthy backend; hold its one slot and let a second
	// bundle's deadline expire while it queues.
	b.block = make(chan struct{})
	hold := make(chan error, 1)
	go func() {
		_, err := g.Submit(context.Background(), testBundle())
		hold <- err
	}()
	waitFor(t, func() bool { return g.Stats().InFlight == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	trace, err = traced(ctx)
	if !errors.Is(err, ErrNoBackends) {
		t.Fatalf("queued past its deadline: %v, want ErrNoBackends", err)
	}
	if got := failed(trace); !reflect.DeepEqual(got, []string{"gateway.queue_wait", "gateway.submit"}) {
		t.Errorf("queue deadline: spans with Err %v, want queue_wait and submit", got)
	}
	if len(trace.Spans) != 3 {
		t.Errorf("queue-deadline trace has %d spans, want 3 (no dispatch)", len(trace.Spans))
	}
	close(b.block)
	if err := <-hold; err != nil {
		t.Fatal(err)
	}

	// Three first waits (one ended by the deadline) → three observations;
	// the two traced ones left exemplars.
	if n := g.tm.queueWait.Count(); n != 3 {
		t.Errorf("queue-wait histogram has %d observations, want 3", n)
	}
	exemplars := 0
	for i := 0; i <= len(telemetry.DurationBuckets); i++ {
		if g.tm.queueWait.BucketExemplar(i) != nil {
			exemplars++
		}
	}
	if exemplars == 0 {
		t.Error("traced queue waits left no exemplar")
	}
	if st := g.Stats(); st.Admitted != st.Completed+st.Failed {
		t.Errorf("admitted %d != completed %d + failed %d", st.Admitted, st.Completed, st.Failed)
	}
}

func TestQueueWaitQuantiles(t *testing.T) {
	m := newGwMetrics(telemetry.NewRegistry())
	if p50 := m.queueWait.QuantileDuration(0.50); p50 != 0 {
		t.Fatalf("empty histogram must report zero, got %v", p50)
	}
	for i := 1; i <= 100; i++ {
		m.queueWait.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	p50 := m.queueWait.QuantileDuration(0.50)
	p99 := m.queueWait.QuantileDuration(0.99)
	// Bucket interpolation is coarser than the old sorted ring, but the
	// quantiles must stay ordered and in the observed range.
	if p50 <= 0 || p50 > 100*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 < p50 || p99 > 150*time.Millisecond {
		t.Fatalf("p99 = %v (p50 %v)", p99, p50)
	}
}

// --- integration: real devices, one killed mid-run ---

func TestFleetFailoverIntegration(t *testing.T) {
	// -raw is the fastest configuration; scheduling is what's under test.
	raw := config(core.ConfigRaw, 1)
	r := newRig(t, 12, raw, raw, raw)
	g := NewGateway(Config{
		QueueDepth:     6,
		BundleDeadline: 10 * time.Second,
		HealthInterval: 10 * time.Millisecond,
		HealthBackoff:  10 * time.Millisecond,
	}, r.backends[0], r.backends[1], r.backends[2])
	defer g.Close()

	// --- Phase 1: burst with one device killed mid-run. Every bundle
	// the gateway accepts must still complete on the survivors.
	const submitters = 40
	var (
		completed atomic.Uint64
		rejected  atomic.Uint64
		killOnce  sync.Once
		start     = make(chan struct{})
		wg        sync.WaitGroup
	)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := g.Submit(context.Background(), r.transferBundle(t, i, uint64(i+1)))
			switch {
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1) // backpressured, never accepted: fine
			case err != nil:
				t.Errorf("accepted bundle %d failed: %v", i, err)
			default:
				if res.Aborted != nil {
					t.Errorf("bundle %d aborted: %v", i, res.Aborted)
				}
				completed.Add(1)
				// Kill one device mid-run, once traffic is flowing.
				killOnce.Do(func() { r.backends[0].Kill() })
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if got := completed.Load() + rejected.Load(); got != submitters {
		t.Fatalf("accounting: %d completed + %d rejected != %d", completed.Load(), rejected.Load(), submitters)
	}
	st := g.Stats()
	if st.Completed != completed.Load() || st.Rejected != rejected.Load() {
		t.Fatalf("stats disagree with callers: %+v", st)
	}
	if st.Backends[0].Healthy {
		t.Fatal("killed backend still marked healthy")
	}
	if st.Backends[1].Dispatched+st.Backends[2].Dispatched == 0 {
		t.Fatal("survivors dispatched nothing")
	}
	if st.Backends[1].HEVM.Steps+st.Backends[2].HEVM.Steps == 0 {
		t.Fatal("no aggregated HEVM stats on survivors")
	}

	// --- Phase 2: drain the whole fleet, then overload the admission
	// queue. The first QueueDepth submissions wait; the rest must get
	// an immediate ErrOverloaded, not a hang.
	r.backends[1].Kill()
	r.backends[2].Kill()
	waitFor(t, func() bool {
		s := g.Stats()
		return !s.Backends[1].Healthy && !s.Backends[2].Healthy
	})
	var (
		overloaded atomic.Uint64
		waitersOK  atomic.Uint64
		wg2        sync.WaitGroup
	)
	for i := 0; i < 10; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			_, err := g.Submit(context.Background(), r.transferBundle(t, i, 9))
			switch {
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			case err == nil:
				waitersOK.Add(1)
			default:
				t.Errorf("drained-fleet submit %d: %v", i, err)
			}
		}(i)
	}
	// Nothing can complete while all devices are down, so exactly
	// QueueDepth submissions sit waiting and the rest bounce.
	waitFor(t, func() bool { return overloaded.Load() == 10-6 && g.Stats().Waiting == 6 })

	// Revive one device: the health monitor re-admits it and every
	// queued bundle completes there.
	r.backends[1].Revive()
	wg2.Wait()
	if waitersOK.Load() != 6 {
		t.Fatalf("queued bundles completed = %d, want 6", waitersOK.Load())
	}
	final := g.Stats()
	if !final.Backends[1].Healthy {
		t.Fatal("revived backend not re-admitted")
	}
	if final.QueueWaitP99 <= 0 {
		t.Fatal("queue-wait quantiles never recorded")
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
