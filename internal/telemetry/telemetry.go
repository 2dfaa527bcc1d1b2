// Package telemetry is the unified, near-zero-overhead metrics layer
// of the pre-execution pipeline: atomic counters, gauges, fixed-bucket
// histograms with lock-free hot-path recording, and lightweight
// request-scoped spans, exported in Prometheus text format and as a
// JSON snapshot (see admin.go for the HTTP endpoint).
//
// Two disciplines govern every API in this package:
//
//   - Disabled telemetry costs one branch and zero allocations. Every
//     instrument is nil-receiver safe: a nil *Counter, *Gauge, or
//     *Histogram no-ops, and a nil *Registry hands out nil
//     instruments, so call sites record unconditionally and the
//     disabled path never allocates, locks, or reads the clock
//     (the span a nil registry starts returns before time.Now).
//
//   - Exported series aggregate only what the untrusted SP already
//     observes: counts, latencies, byte volumes. Per-user addresses,
//     keys, calldata, and ORAM leaf positions must never reach a
//     metric name or label — the telemetrysafe analyzer in
//     internal/analysis enforces that label values are compile-time
//     constants unless a //hardtape:telemetry-ok waiver explains why
//     a value is not user-controlled.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates the instrument types in the registry.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// desc is the identity of one series: family name plus label pairs.
type desc struct {
	name   string
	help   string
	kind   metricKind
	labels []string // k1, v1, k2, v2, ...
}

// key returns the series identity used for idempotent registration.
func (d *desc) key() string {
	if len(d.labels) == 0 {
		return d.name
	}
	return d.name + "\x00" + strings.Join(d.labels, "\x00")
}

// labelString renders {k="v",...} or "" without labels.
func (d *desc) labelString() string {
	if len(d.labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(d.labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", d.labels[i], d.labels[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Registry holds a process's metric series. The zero registry pointer
// (nil) is the disabled state: every registration returns a nil
// instrument and every export renders empty.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]any
	series []any // registration order: *Counter | *Gauge | *Histogram

	// tracer, when set, turns on distributed tracing for every
	// subsystem sharing this registry (see trace.go / recorder.go).
	tracer atomic.Pointer[Tracer]
}

// NewRegistry creates an enabled registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]any)}
}

// EnableTracing attaches a tracer and flight recorder to the registry
// so tracing rides the same opt-in plumbing as metrics: the spans every
// subsystem holding the registry starts become traceable (StartSpan).
// proc labels this process's spans (e.g. "gateway", "device-1");
// ringSize is the flight-recorder capacity (<=0 selects
// DefaultRingSize). Idempotent per registry: a second call replaces
// the tracer; callers own closing the recorder they created. A nil
// registry returns nil (tracing requires telemetry).
func (r *Registry) EnableTracing(proc string, ringSize int) *Tracer {
	if r == nil {
		return nil
	}
	t := newTracer(r, NewRecorder(ringSize), proc)
	r.tracer.Store(t)
	return t
}

// Tracer returns the registry's tracer, nil when tracing (or the
// registry itself) is disabled. One atomic load: cheap enough for
// per-bundle hot paths.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer.Load()
}

// FlightRecorder returns the recorder behind the registry's tracer
// (nil when tracing is disabled).
func (r *Registry) FlightRecorder() *Recorder {
	return r.Tracer().Recorder()
}

// register interns a series, returning an existing instrument when the
// same name+labels was registered before. A kind clash on one name is
// a programming error and panics.
func (r *Registry) register(d desc, make func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byKey[d.key()]; ok {
		if kindOf(existing) != d.kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)",
				d.name, d.kind, kindOf(existing)))
		}
		return existing
	}
	m := make()
	r.byKey[d.key()] = m
	r.series = append(r.series, m)
	return m
}

func kindOf(m any) metricKind {
	switch m.(type) {
	case *Counter:
		return kindCounter
	case *Gauge:
		return kindGauge
	case *Histogram:
		return kindHistogram
	}
	return 0
}

// Counter registers (or looks up) a monotonically increasing series.
// Labels are k,v pairs; values MUST be compile-time constants or
// operator-assigned identifiers, never user data (telemetrysafe).
// A nil registry returns a nil (disabled, still usable) counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	d := desc{name: name, help: help, kind: kindCounter, labels: labels}
	return r.register(d, func() any { return &Counter{d: d} }).(*Counter)
}

// Gauge registers (or looks up) a point-in-time series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	d := desc{name: name, help: help, kind: kindGauge, labels: labels}
	return r.register(d, func() any { return &Gauge{d: d} }).(*Gauge)
}

// Histogram registers (or looks up) a fixed-bucket distribution.
// bounds are inclusive upper bounds in ascending order (a +Inf bucket
// is implicit); nil selects DurationBuckets. Observations are float64s
// — by convention seconds for latency series (Prometheus base units).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	d := desc{name: name, help: help, kind: kindHistogram, labels: labels}
	return r.register(d, func() any {
		h := &Histogram{d: d, bounds: bounds}
		h.buckets = make([]atomic.Uint64, len(bounds)+1)
		h.exemplars = make([]atomic.Pointer[Exemplar], len(bounds)+1)
		return h
	}).(*Histogram)
}

// DurationBuckets spans 1µs–10s exponentially: wide enough for a DHKE
// handshake, fine enough for a single ORAM round trip.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RatioBuckets spans [0,1] for utilization and hit-rate distributions.
var RatioBuckets = []float64{
	0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1,
}

// SizeBuckets spans 64 B–16 MB for byte-volume distributions.
var SizeBuckets = []float64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20,
}

// Counter is a monotonically increasing series. All methods are safe
// on a nil receiver (the disabled state) and lock-free otherwise.
type Counter struct {
	v atomic.Uint64
	d desc
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 when disabled).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time series (int64: occupancy, depth, bytes).
type Gauge struct {
	v atomic.Int64
	d desc
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (lock-free high-water
// mark, e.g. peak stash depth).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge (0 when disabled).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution with lock-free recording:
// one atomic add per bucket/count and a CAS loop for the float sum.
type Histogram struct {
	d       desc
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
	// exemplars holds, per bucket, the most recent traced observation
	// (len(bounds)+1, entries nil until a traced observation lands) —
	// the link from a p99 bucket to a concrete flight-recorder trace.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one histogram bucket to a concrete trace: "the p99
// queue wait looked like THIS request".
type Exemplar struct {
	Trace TraceID
	Value float64
	When  time.Time
}

// bucketIdx returns the index of the bucket containing v.
func (h *Histogram) bucketIdx(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.observe(v, TraceID{}) }

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.observe(d.Seconds(), TraceID{}) }

// observe records one value and, when trace is non-zero, stamps the
// containing bucket's exemplar with it. Span.Mark/End pass their trace
// id unconditionally: an untraced span yields a zero id and the
// exemplar store is skipped, keeping the untraced path allocation-free.
func (h *Histogram) observe(v float64, trace TraceID) {
	if h == nil {
		return
	}
	i := h.bucketIdx(v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if !trace.IsZero() {
		h.exemplars[i].Store(&Exemplar{Trace: trace, Value: v, When: time.Now()})
	}
}

// BucketExemplar returns bucket i's exemplar (nil when none landed).
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if h == nil || i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation inside the containing bucket — the standard
// fixed-bucket estimate, exact enough for p50/p99 operational
// dashboards. Returns 0 with no observations; observations in the
// +Inf bucket clamp to the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (target - cum) / c
			return lower + frac*(h.bounds[i]-lower)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// QuantileDuration is Quantile for latency histograms recorded in
// seconds.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// sortedSeries returns the series sorted by family name then label
// signature (stable export order).
func (r *Registry) sortedSeries() []any {
	r.mu.Lock()
	out := append([]any(nil), r.series...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := descOf(out[i]), descOf(out[j])
		if di.name != dj.name {
			return di.name < dj.name
		}
		return di.key() < dj.key()
	})
	return out
}

func descOf(m any) *desc {
	switch v := m.(type) {
	case *Counter:
		return &v.d
	case *Gauge:
		return &v.d
	case *Histogram:
		return &v.d
	}
	panic("telemetry: unknown metric type")
}
