package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hardtape"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
)

// oracle holds the reference trace of every distinct bundle, taken at
// set-up from the unprotected baseline executor (baseline.Geth). Every
// reply the system under test produces is diffed against it.
type oracle struct {
	traces []*tracer.BundleTrace
}

func buildOracle(t *topology, bundles []*types.Bundle) (*oracle, error) {
	o := &oracle{}
	for i, b := range bundles {
		ref, err := t.geth.ExecuteBundle(b)
		if err != nil {
			return nil, fmt.Errorf("oracle bundle %d: %w", i, err)
		}
		o.traces = append(o.traces, ref.Trace)
	}
	return o, nil
}

// check compares bundle i's produced trace with the reference. abort
// is the reply's abort reason, if any; an aborted bundle is a failure
// (the workloads are chosen so that none aborts).
func (o *oracle) check(i int, got *tracer.BundleTrace, abort string) error {
	if abort != "" {
		return fmt.Errorf("bundle %d aborted: %s", i, abort)
	}
	want := o.traces[i]
	if got == nil || len(got.Txs) != len(want.Txs) {
		return fmt.Errorf("bundle %d: trace has wrong tx count", i)
	}
	for j := range want.Txs {
		if diffs := tracer.Diff(got.Txs[j], want.Txs[j]); len(diffs) > 0 {
			return fmt.Errorf("bundle %d tx %d differs from oracle: %s", i, j, strings.Join(diffs, "; "))
		}
	}
	return nil
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	attempted int
	failed    int
	// firstFailure explains the first failed request, for the report.
	firstFailure string
	// latencies holds one entry per correct reply; in an open loop they
	// run from the due time.
	latencies []time.Duration
	txs       int
	virtual   time.Duration
	// Closed loops only: transactions per second of time the clients
	// spent in requests, and the reference slices they ran in between.
	goodput float64
	ref     []time.Duration
	// Open loop only: how late each request left, and how many missed
	// the latency limit (failures included).
	lags   []time.Duration
	missed int
	// Churn only: handshake times (TCP connect included).
	coldDials, warmResumes []time.Duration
}

// collector gathers per-request outcomes from concurrent clients.
type collector struct {
	mu  sync.Mutex
	res phaseResult
}

func (c *collector) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.attempted++
	c.res.failed++
	if c.res.firstFailure == "" {
		c.res.firstFailure = err.Error()
	}
}

func (c *collector) ok(lat time.Duration, txs int, virtual time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.attempted++
	c.res.latencies = append(c.res.latencies, lat)
	c.res.txs += txs
	c.res.virtual += virtual
}

// submit sends bundle i on a session, stamps the latency when the reply
// arrives and only then verifies it, so checking is not on the clock.
// It returns the latency and the transactions of a correct reply (0
// after a failure).
func submit(s *session, i int, bundles []*types.Bundle, o *oracle, from time.Time, c *collector) (time.Duration, int) {
	res, err := s.client.PreExecute(bundles[i])
	lat := time.Since(from)
	if err != nil {
		c.fail(fmt.Errorf("bundle %d: %w", i, err))
		return lat, 0
	}
	if err := o.check(i, res.Trace, res.AbortReason); err != nil {
		c.fail(err)
		return lat, 0
	}
	c.ok(lat, len(bundles[i].Txs), res.VirtualTime)
	return lat, len(bundles[i].Txs)
}

// loopClient is one closed-loop client's own tally: the time it spent
// in requests, the transactions correctly answered in that time, and
// the reference slices it ran in between.
type loopClient struct {
	busy time.Duration
	txs  int
	ref  *refClock
}

func newLoopClient() *loopClient { return &loopClient{ref: newRefClock()} }

// done books one request and runs the reference slices that go with it.
func (l *loopClient) done(lat time.Duration, txs int) {
	l.busy += lat
	l.txs += txs
	l.ref.after(lat)
}

// finish folds the client into the phase. A client's rate is its
// transactions over its time in requests — the slices in between are
// think time the system under test does not see — and the phase's
// goodput is the sum over its clients.
func (c *collector) finish(l *loopClient) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.busy > 0 {
		c.res.goodput += float64(l.txs) / l.busy.Seconds()
	}
	c.res.ref = append(c.res.ref, l.ref.take()...)
}

// closedLoop drives one goroutine per session for dur: each sends its
// next bundle only after the previous reply. Bundles are handed out
// from one shared cursor so the population is covered evenly however
// fast each client runs.
func closedLoop(sessions []*session, bundles []*types.Bundle, o *oracle, dur time.Duration) phaseResult {
	var (
		c      collector
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			l := newLoopClient()
			defer c.finish(l)
			for time.Now().Before(deadline) {
				i := int(cursor.Add(1)-1) % len(bundles)
				l.done(submit(s, i, bundles, o, time.Now(), &c))
			}
		}(s)
	}
	wg.Wait()
	return c.res
}

// arrivalSchedule draws Poisson arrivals at rate per second over dur,
// as ascending offsets from the phase start. The count is fixed at
// rate·dur and the instants are uniform order statistics — a Poisson
// process conditioned on its count — so every seed offers exactly the
// same load and only the bunching differs.
func arrivalSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*dur.Seconds()+0.5))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoopInFlight bounds the requests an open loop keeps in flight;
// past it the generator stalls, which the lag metric then shows.
const openLoopInFlight = 256

// pace calls send(k, due) on its own goroutine for every arrival of the
// schedule, no earlier than due, whatever earlier sends are doing; at
// most inFlight sends run at once, and a generator held up by that
// bound falls behind its schedule. It returns, per arrival, how late
// the send left. send must time its request from due, not from when it
// was called, so a stall is charged to every request it delays.
func pace(schedule []time.Duration, inFlight int, send func(k int, due time.Time)) []time.Duration {
	var (
		wg  sync.WaitGroup
		sem = make(chan struct{}, inFlight)
	)
	start := time.Now()
	lags := make([]time.Duration, 0, len(schedule))
	for k, off := range schedule {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		lags = append(lags, time.Since(due))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			send(k, due)
		}(k)
	}
	wg.Wait()
	return lags
}

// openLoop sends bundles on a fixed seeded schedule regardless of
// replies, spread round-robin over the sessions (the mux interleaves
// them). Latency runs from each request's due time.
func openLoop(sessions []*session, bundles []*types.Bundle, o *oracle, schedule []time.Duration, limit time.Duration) phaseResult {
	var c collector
	c.res.lags = pace(schedule, openLoopInFlight, func(k int, due time.Time) {
		submit(sessions[k%len(sessions)], k%len(bundles), bundles, o, due, &c)
	})
	c.res.missed = c.res.failed
	for _, lat := range c.res.latencies {
		if lat > limit {
			c.res.missed++
		}
	}
	return c.res
}

// churnLoop makes every request a whole visit: TCP connect, handshake,
// one bundle, close. Each client dials cold once per coldEvery visits
// and resumes from the previous visit's ticket otherwise. Latency runs
// from before the connect to the first trace.
func churnLoop(t *topology, clients int, bundles []*types.Bundle, o *oracle, coldEvery int, dur time.Duration) phaseResult {
	var (
		c      collector
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := newLoopClient()
			defer c.finish(l)
			var ticket *hardtape.SessionTicket
			for visit := 0; time.Now().Before(deadline); visit++ {
				i := int(cursor.Add(1)-1) % len(bundles)
				from := time.Now()
				var txs int
				ticket, txs = churnVisit(t, ticket, visit%coldEvery == 0, i, bundles, o, &c)
				l.done(time.Since(from), txs)
			}
		}()
	}
	wg.Wait()
	return c.res
}

// churnVisit performs one visit and returns the ticket for the next
// and the transactions correctly answered.
func churnVisit(t *topology, ticket *hardtape.SessionTicket, cold bool, i int, bundles []*types.Bundle, o *oracle, c *collector) (*hardtape.SessionTicket, int) {
	var (
		s   *session
		err error
	)
	from := time.Now()
	if cold || ticket == nil {
		cold = true
		s, err = t.dial(t.frontAddr, nil)
	} else {
		s, err = t.resume(t.frontAddr, ticket, nil)
	}
	handshake := time.Since(from)
	if err != nil {
		c.fail(fmt.Errorf("visit handshake (cold=%v): %w", cold, err))
		return nil, 0
	}
	defer s.Close()
	_, txs := submit(s, i, bundles, o, from, c)
	c.mu.Lock()
	if cold {
		c.res.coldDials = append(c.res.coldDials, handshake)
	} else {
		c.res.warmResumes = append(c.res.warmResumes, handshake)
	}
	c.mu.Unlock()
	return s.client.Ticket(), txs
}

// dialSessions opens n client sessions to addr.
func dialSessions(t *topology, addr string, n int) ([]*session, error) {
	sessions := make([]*session, 0, n)
	for i := 0; i < n; i++ {
		s, err := t.dial(addr, nil)
		if err != nil {
			closeSessions(sessions)
			return nil, fmt.Errorf("dial session %d: %w", i, err)
		}
		sessions = append(sessions, s)
	}
	return sessions, nil
}

func closeSessions(sessions []*session) {
	for _, s := range sessions {
		s.Close()
	}
}
