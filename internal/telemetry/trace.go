// Distributed tracing: request-scoped span trees that follow one
// bundle end to end — client submit → gateway admission → device
// dispatch → HEVM stages → parallel-lane conflict re-execution →
// per-shard ORAM fan-out — across process boundaries.
//
// The same two disciplines as the metrics layer apply:
//
//   - Disabled tracing costs one branch and zero allocations. The span
//     a nil registry starts is the zero Span and an untraced request's
//     span carries no node, so call sites record unconditionally.
//
//   - A span record holds no free text. Span and attribute names are
//     compile-time constants (telemetrysafe), the process label is set
//     once at EnableTracing, attribute values are integers the
//     untrusted SP already observes (counts, shard and backend
//     indices), and a failure is
//     one bit: the span's name and its place in the tree say which
//     layer failed, never why, so no error message — which may quote
//     a value read through the ORAM — reaches /traces.
//
// Trace and span IDs are correlation handles, not secrets: they are
// minted from a splitmix64 stream seeded once per tracer from
// crypto/rand, which keeps the per-span cost to one atomic add and a
// few shifts without ever touching math/rand.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request tree (128-bit, hex on the
// wire-facing admin endpoints).
type TraceID [16]byte

// IsZero reports whether the id is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// ParseTraceID decodes a 32-hex-digit trace id.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, true
}

// SpanID identifies one span within a trace (64-bit).
type SpanID [8]byte

// IsZero reports whether the id is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated identity of a live span: enough for a
// remote process to attach children to it. It is exactly what the
// 24-byte wire encoding in internal/channel carries.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// Attr is one integer span attribute.
type Attr struct {
	Name string
	Int  int64
}

// SpanRecord is one finished span. Remote processes ship their segment
// of a trace back to the caller inside the trace reply (see
// Recorder.TakeSpans / Adopt; the layout is core's wire codec).
type SpanRecord struct {
	Trace    TraceID
	Span     SpanID
	Parent   SpanID // zero for the trace root
	Name     string
	Proc     string // process label (e.g. "gateway", "device-1")
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Err      bool // the span failed; the error's text is never kept
}

// Tracer is one process's tracing identity: the process label, the id
// stream and the flight recorder finished spans land in. Get one from
// Registry.EnableTracing so tracing rides the same opt-in plumbing as
// metrics; a nil tracer is the disabled state.
type Tracer struct {
	reg  *Registry
	rec  *Recorder
	proc string
	ids  idStream
}

// newTracer builds reg's tracer; its spans land in rec.
func newTracer(reg *Registry, rec *Recorder, proc string) *Tracer {
	t := &Tracer{reg: reg, rec: rec, proc: proc}
	t.ids.seedFromOS()
	return t
}

// Registry returns the registry the tracer was enabled on (nil when the
// tracer is nil) — what a holder of only the tracer starts spans from.
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Recorder returns the flight recorder the tracer records into (nil
// when the tracer is nil).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Span is one timed interval of a request: the stopwatch that feeds
// latency histograms and, when the request is traced, the node it
// contributes to the trace tree. One clock, three states:
//
//   - off: the registry is nil. StartSpan returns the zero Span without
//     reading the clock or the context and every method is one branch.
//   - timed: the registry is live but the request is untraced (tracing
//     is not enabled, or ctx carries no trace). Mark/End feed histograms
//     from the span's clock; nothing is allocated.
//   - traced: additionally, End emits a SpanRecord to the flight
//     recorder, Mark/End stamp the histogram bucket's exemplar with the
//     trace id, and the context StartSpan returns parents the callee's
//     spans under this one.
//
// A Span is a small value owned by the function that started it; pass
// the returned context down, not the Span.
type Span struct {
	start time.Time // zero when off or ended
	last  time.Time // previous Mark (stage boundary)
	node  *spanNode // nil unless traced
}

// spanNode is the traced state of a live span — what a context carries
// so callees can parent under it. A node without a tracer is a trace
// entry point (Registry.ContinueTrace): only its identity is read.
type spanNode struct {
	t      *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	attrs  []Attr
	root   bool
}

// ctxKey keys the live span node in a context.Context.
type ctxKey struct{}

// ContinueTrace marks ctx as the point a request enters this process:
// spans started from the result continue the remote span (what the wire
// carried), or root a new trace when remote is zero. A ctx that already
// carries a span is returned as is — an in-process parent wins — and so
// is any ctx when tracing is disabled.
func (r *Registry) ContinueTrace(ctx context.Context, remote SpanContext) context.Context {
	if r.Tracer() == nil {
		return ctx
	}
	if cur, _ := ctx.Value(ctxKey{}).(*spanNode); cur != nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &spanNode{sc: remote})
}

// StartSpan opens the span for one interval of the request ctx belongs
// to and returns it with the context its callees should run under. It
// is traced when tracing is enabled and ctx carries a trace (a parent
// span, or a ContinueTrace entry point), timed when the registry is
// live, and off otherwise (see Span). The name MUST be a compile-time
// constant (telemetrysafe enforces this).
func (r *Registry) StartSpan(ctx context.Context, name string) (Span, context.Context) {
	if r == nil {
		return Span{}, ctx
	}
	now := time.Now()
	s := Span{start: now, last: now}
	t := r.tracer.Load()
	if t == nil {
		return s, ctx
	}
	parent, _ := ctx.Value(ctxKey{}).(*spanNode)
	if parent == nil {
		return s, ctx
	}
	n := &spanNode{t: t, name: name}
	n.sc.Span = t.ids.nextSpanID()
	if parent.sc.Valid() {
		n.sc.Trace = parent.sc.Trace
		n.parent = parent.sc.Span
	} else {
		n.sc.Trace = t.ids.nextTraceID()
		n.root = true
	}
	t.rec.spanStarted(n.sc.Trace, n.root)
	s.node = n
	return s, context.WithValue(ctx, ctxKey{}, n)
}

// Context returns the span's propagatable identity — what the wire
// carries to a remote callee; it outlives End. Zero unless the span is
// traced.
func (s *Span) Context() SpanContext {
	if s.node == nil {
		return SpanContext{}
	}
	return s.node.sc
}

// AddInt attaches an integer attribute to a traced span.
func (s *Span) AddInt(name string, val int64) {
	if s.node != nil {
		s.node.attrs = append(s.node.attrs, Attr{Name: name, Int: val})
	}
}

// Mark records the time since the previous Mark (or the start) into h
// and advances the stage boundary. A nil h records nothing but still
// advances, so an optional stage does not skew the next one.
func (s *Span) Mark(h *Histogram) {
	if s.start.IsZero() {
		return
	}
	now := time.Now()
	h.observe(now.Sub(s.last).Seconds(), s.Context().Trace)
	s.last = now
}

// End closes the span: the time since it started goes into h (nil
// records nothing), and a traced span hands its record to the flight
// recorder, failed when *errp is non-nil — error traces are always kept
// by the tail sampler. errp is the function's error result, so one
// `defer sp.End(h, &err)` covers every return path; nil means the
// interval cannot fail. Ending twice is a no-op.
func (s *Span) End(h *Histogram, errp *error) {
	n := s.node
	if s.start.IsZero() || (h == nil && n == nil) {
		return
	}
	start := s.start
	d := time.Since(start)
	h.observe(d.Seconds(), s.Context().Trace)
	s.start = time.Time{}
	if n == nil {
		return
	}
	rec := SpanRecord{
		Trace:    n.sc.Trace,
		Span:     n.sc.Span,
		Parent:   n.parent,
		Name:     n.name,
		Proc:     n.t.proc,
		Start:    start,
		Duration: d,
		Attrs:    n.attrs,
		Err:      errp != nil && *errp != nil,
	}
	n.t.rec.spanEnded(rec, n.root)
}

// idStream generates trace/span ids: splitmix64 over an atomic
// counter with a crypto/rand seed and gamma. Unique with high
// probability and -race clean (one atomic add per id); explicitly NOT
// key material.
type idStream struct {
	ctr   atomic.Uint64
	seed  uint64
	gamma uint64
}

func (g *idStream) seedFromOS() {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not fatal for correlation ids; fall
		// back to the clock rather than refusing to trace.
		binary.LittleEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
		binary.LittleEndian.PutUint64(b[8:], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
	}
	g.seed = binary.LittleEndian.Uint64(b[:8])
	// An odd gamma keeps the additive walk full-period.
	g.gamma = binary.LittleEndian.Uint64(b[8:]) | 1
}

// next draws the counter's next splitmix64 output: bijective mixing,
// so distinct counter values give distinct ids.
func (g *idStream) next() uint64 {
	z := g.seed + g.ctr.Add(1)*g.gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *idStream) nextSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], g.next())
	}
	return id
}

func (g *idStream) nextTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], g.next())
		binary.BigEndian.PutUint64(id[8:], g.next())
	}
	return id
}
