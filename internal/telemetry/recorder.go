package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the flight recorder: completed trace trees land in a
// fixed-size ring of atomic pointers (lock-free for readers and for
// the publish step) behind a tail sampler that keeps every error
// trace plus the slowest tail and drops the boring middle. Open spans
// accumulate in a mutex-guarded pending table until their trace
// completes; a janitor goroutine expires segments whose remote caller
// never collected them, so the table cannot grow without bound.
type Recorder struct {
	mu      sync.Mutex
	pending map[TraceID]*pendingTrace
	// recent is a ring of recent root durations (seconds) backing the
	// tail-sampling threshold.
	recent    []float64
	recentLen int
	recentPos int
	seen      int // completed local roots, for warmup

	ring []atomic.Pointer[Trace]
	next atomic.Uint64

	kept    atomic.Uint64
	dropped atomic.Uint64
	errKept atomic.Uint64
	expired atomic.Uint64

	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// pendingTrace accumulates one trace's spans until it completes (all
// locally started spans ended, and — when this process owns the root
// — the root ended).
type pendingTrace struct {
	open      int
	rooted    bool
	rootEnded bool
	rootDur   time.Duration
	spans     []SpanRecord
	errs      int
	born      time.Time
}

// Trace is one completed, sampled-in trace tree.
type Trace struct {
	ID       TraceID
	Root     string // root span name ("" for expired partial traces)
	Duration time.Duration
	Err      bool
	Spans    []SpanRecord // sorted by start time
}

// Tail-sampling policy knobs.
const (
	// recorderWarmup traces are kept unconditionally so the threshold
	// has data to stand on.
	recorderWarmup = 64
	// recentWindow root durations back the tail threshold.
	recentWindow = 256
	// keepQuantile: roots at or above this quantile of the recent
	// window are kept (the "slowest percentile" knob).
	keepQuantile = 0.90
	// defaultStale bounds how long an uncollected trace segment may
	// sit in the pending table.
	defaultStale = 30 * time.Second
	// DefaultRingSize is the flight-recorder capacity used by
	// Registry.EnableTracing.
	DefaultRingSize = 256
)

// NewRecorder builds a recorder with the given ring capacity (<=0
// selects DefaultRingSize) and starts its janitor. Callers must Close
// it to stop the janitor goroutine.
func NewRecorder(ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	r := &Recorder{
		pending: make(map[TraceID]*pendingTrace),
		recent:  make([]float64, recentWindow),
		ring:    make([]atomic.Pointer[Trace], ringSize),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.janitor()
	return r
}

// Close stops the janitor and waits for it to exit. Idempotent.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.closeOnce.Do(func() { close(r.quit) })
	<-r.done
}

// janitor periodically expires pending segments whose trace never
// completed locally (e.g. a remote caller that died before collecting
// them). Error-bearing partials are published so failures stay
// debuggable; clean partials are dropped.
func (r *Recorder) janitor() {
	defer close(r.done)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-t.C:
			r.expireStale(time.Now())
		}
	}
}

func (r *Recorder) expireStale(now time.Time) {
	var orphans []*Trace
	r.mu.Lock()
	for id, p := range r.pending {
		if now.Sub(p.born) < defaultStale {
			continue
		}
		delete(r.pending, id)
		r.expired.Add(1)
		if p.errs > 0 && len(p.spans) > 0 {
			orphans = append(orphans, assemble(id, p))
		}
	}
	r.mu.Unlock()
	for _, t := range orphans {
		r.publish(t)
		r.errKept.Add(1)
	}
}

// spanStarted registers a live span under its trace.
func (r *Recorder) spanStarted(id TraceID, root bool) {
	r.mu.Lock()
	p := r.pending[id]
	if p == nil {
		p = &pendingTrace{born: time.Now()}
		r.pending[id] = p
	}
	p.open++
	if root {
		p.rooted = true
	}
	r.mu.Unlock()
}

// spanEnded files a finished span and finalizes the trace when it was
// the last open span of a locally rooted tree.
func (r *Recorder) spanEnded(rec SpanRecord, root bool) {
	var complete *Trace
	r.mu.Lock()
	p := r.pending[rec.Trace]
	if p == nil {
		// The segment expired while the span ran; refile it so the
		// janitor gets another look (or TakeSpans collects it).
		p = &pendingTrace{born: time.Now(), open: 1, rooted: root}
		r.pending[rec.Trace] = p
	}
	p.open--
	p.spans = append(p.spans, rec)
	if rec.Err {
		p.errs++
	}
	if root {
		p.rootEnded = true
		p.rootDur = rec.Duration
	}
	if p.rooted && p.rootEnded && p.open <= 0 {
		delete(r.pending, rec.Trace)
		if r.sampleIn(p) {
			complete = assemble(rec.Trace, p)
		}
	}
	r.mu.Unlock()
	if complete != nil {
		r.publish(complete)
	}
}

// sampleIn decides, with r.mu held, whether a completed trace is kept:
// all error traces, everything during warmup, then only roots at or
// above keepQuantile of the recent-duration window.
func (r *Recorder) sampleIn(p *pendingTrace) bool {
	sec := p.rootDur.Seconds()
	r.recent[r.recentPos] = sec
	r.recentPos = (r.recentPos + 1) % len(r.recent)
	if r.recentLen < len(r.recent) {
		r.recentLen++
	}
	r.seen++
	if p.errs > 0 {
		r.errKept.Add(1)
		return true
	}
	if r.seen <= recorderWarmup {
		return true
	}
	if sec >= r.tailThreshold() {
		return true
	}
	r.dropped.Add(1)
	return false
}

// tailThreshold computes the keepQuantile duration over the recent
// window (r.mu held).
func (r *Recorder) tailThreshold() float64 {
	n := r.recentLen
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, r.recent[:n])
	sort.Float64s(tmp)
	i := int(keepQuantile * float64(n))
	if i >= n {
		i = n - 1
	}
	return tmp[i]
}

// assemble builds the exported trace tree (r.mu held).
func assemble(id TraceID, p *pendingTrace) *Trace {
	spans := append([]SpanRecord(nil), p.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	t := &Trace{ID: id, Err: p.errs > 0, Duration: p.rootDur, Spans: spans}
	for i := range spans {
		if spans[i].Parent.IsZero() {
			t.Root = spans[i].Name
			if t.Duration == 0 {
				t.Duration = spans[i].Duration
			}
			break
		}
	}
	return t
}

// publish stores a kept trace in the ring, overwriting the oldest.
func (r *Recorder) publish(t *Trace) {
	i := r.next.Add(1) - 1
	r.ring[i%uint64(len(r.ring))].Store(t)
	r.kept.Add(1)
}

// TakeSpans removes and returns the finished spans accumulated for a
// trace whose root lives in ANOTHER process — the remote side of a
// propagated context calls this after serving a request and ships the
// records back in its reply, so the caller's recorder ends up holding
// one contiguous tree. When spans of the trace are still open the
// pending entry stays (minus the taken spans); otherwise it is
// removed. Nil-receiver safe.
func (r *Recorder) TakeSpans(id TraceID) []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pending[id]
	if p == nil {
		return nil
	}
	spans := p.spans
	p.spans = nil
	p.errs = 0
	if p.open <= 0 && !p.rooted {
		delete(r.pending, id)
	}
	return spans
}

// Adopt files span records harvested from a remote process into the
// local pending table, so a trace rooted here absorbs its remote
// segments before the root ends. Nil-receiver safe.
func (r *Recorder) Adopt(spans []SpanRecord) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	for _, rec := range spans {
		p := r.pending[rec.Trace]
		if p == nil {
			p = &pendingTrace{born: time.Now()}
			r.pending[rec.Trace] = p
		}
		p.spans = append(p.spans, rec)
		if rec.Err {
			p.errs++
		}
	}
	r.mu.Unlock()
}

// Traces returns the ring's contents, newest first. Lock-free.
func (r *Recorder) Traces() []*Trace {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	size := uint64(len(r.ring))
	out := make([]*Trace, 0, min(n, size))
	for k := uint64(1); k <= size && k <= n; k++ {
		if t := r.ring[(n-k)%size].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Lookup finds a kept trace by id (nil when evicted or never kept).
func (r *Recorder) Lookup(id TraceID) *Trace {
	if r == nil {
		return nil
	}
	for i := range r.ring {
		if t := r.ring[i].Load(); t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// RecorderStats is the recorder's own bookkeeping, exported on the
// /traces index.
type RecorderStats struct {
	Kept    uint64 `json:"kept"`
	Dropped uint64 `json:"dropped"`
	ErrKept uint64 `json:"err_kept"`
	Expired uint64 `json:"expired"`
	Pending int    `json:"pending"`
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	pending := len(r.pending)
	r.mu.Unlock()
	return RecorderStats{
		Kept:    r.kept.Load(),
		Dropped: r.dropped.Load(),
		ErrKept: r.errKept.Load(),
		Expired: r.expired.Load(),
		Pending: pending,
	}
}

// traceJSON is the /traces/{id} shape.
type traceJSON struct {
	ID       string     `json:"id"`
	Root     string     `json:"root"`
	Duration float64    `json:"duration_seconds"`
	Err      bool       `json:"err"`
	Spans    []spanJSON `json:"spans"`
}

type spanJSON struct {
	Span     string           `json:"span"`
	Parent   string           `json:"parent,omitempty"`
	Name     string           `json:"name"`
	Proc     string           `json:"proc"`
	Start    time.Time        `json:"start"`
	Duration float64          `json:"duration_seconds"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Err      bool             `json:"err,omitempty"`
}

func toTraceJSON(t *Trace) traceJSON {
	out := traceJSON{
		ID:       t.ID.String(),
		Root:     t.Root,
		Duration: t.Duration.Seconds(),
		Err:      t.Err,
		Spans:    make([]spanJSON, 0, len(t.Spans)),
	}
	for _, s := range t.Spans {
		sj := spanJSON{
			Span:     s.Span.String(),
			Name:     s.Name,
			Proc:     s.Proc,
			Start:    s.Start,
			Duration: s.Duration.Seconds(),
			Err:      s.Err,
		}
		if !s.Parent.IsZero() {
			sj.Parent = s.Parent.String()
		}
		if len(s.Attrs) > 0 {
			sj.Attrs = make(map[string]int64, len(s.Attrs))
			for _, a := range s.Attrs {
				sj.Attrs[a.Name] = a.Int
			}
		}
		out.Spans = append(out.Spans, sj)
	}
	return out
}

// writeTraceIndex renders the /traces index: recorder stats plus one
// summary row per kept trace, newest first.
func writeTraceIndex(w io.Writer, r *Recorder) error {
	type row struct {
		ID       string  `json:"id"`
		Root     string  `json:"root"`
		Duration float64 `json:"duration_seconds"`
		Spans    int     `json:"spans"`
		Err      bool    `json:"err"`
	}
	var idx struct {
		Stats  RecorderStats `json:"stats"`
		Traces []row         `json:"traces"`
	}
	idx.Stats = r.Stats()
	for _, t := range r.Traces() {
		idx.Traces = append(idx.Traces, row{
			ID:       t.ID.String(),
			Root:     t.Root,
			Duration: t.Duration.Seconds(),
			Spans:    len(t.Spans),
			Err:      t.Err,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(idx)
}

// WriteTraceJSON renders one trace as indented JSON.
func WriteTraceJSON(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(toTraceJSON(t))
}

// WriteChromeTrace renders one trace in the Chrome trace-event JSON
// format (load at chrome://tracing or ui.perfetto.dev). Spans become
// async nestable begin/end pairs grouped per process, which renders
// overlapping parallel-lane spans correctly.
func WriteChromeTrace(w io.Writer, t *Trace) error {
	type chromeEvent struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat,omitempty"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"` // microseconds
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		ID    string         `json:"id,omitempty"`
		Args  map[string]any `json:"args,omitempty"`
	}
	var events []chromeEvent
	pids := map[string]int{}
	pidOf := func(proc string) int {
		if id, ok := pids[proc]; ok {
			return id
		}
		id := len(pids) + 1
		pids[proc] = id
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: id, TID: 0,
			Args: map[string]any{"name": proc},
		})
		return id
	}
	var epoch time.Time
	for _, s := range t.Spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	for _, s := range t.Spans {
		pid := pidOf(s.Proc)
		args := map[string]any{"span": s.Span.String()}
		for _, a := range s.Attrs {
			args[a.Name] = a.Int
		}
		if s.Err {
			args["err"] = true
		}
		ts := float64(s.Start.Sub(epoch)) / float64(time.Microsecond)
		dur := float64(s.Duration) / float64(time.Microsecond)
		id := fmt.Sprintf("%s-%s", t.ID.String()[:8], s.Span.String())
		events = append(events,
			chromeEvent{Name: s.Name, Cat: "hardtape", Phase: "b", TS: ts, PID: pid, TID: 1, ID: id, Args: args},
			chromeEvent{Name: s.Name, Cat: "hardtape", Phase: "e", TS: ts + dur, PID: pid, TID: 1, ID: id},
		)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
