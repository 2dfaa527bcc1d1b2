package telemetry

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// mkTraceID builds a distinct id per call for recorder-level tests
// that bypass the tracer.
func mkTraceID(n uint64) TraceID {
	var id TraceID
	for i := 0; i < 8; i++ {
		id[i] = byte(n >> (8 * i))
	}
	id[15] = 1 // never zero
	return id
}

func TestTraceSpanTree(t *testing.T) {
	reg := NewRegistry()
	reg.EnableTracing("test", 8)
	defer reg.FlightRecorder().Close()

	// Without an entry point the request is untraced: timed, no node.
	if sp, _ := reg.StartSpan(context.Background(), "test.untraced"); sp.Context().Valid() || sp.start.IsZero() {
		t.Fatalf("span from a bare context: traced %v, timed %v; want timed only",
			sp.Context().Valid(), !sp.start.IsZero())
	}

	root, ctx := reg.StartSpan(reg.ContinueTrace(context.Background(), SpanContext{}), "test.root")
	rootCtx := root.Context()
	if !rootCtx.Valid() {
		t.Fatal("root span context invalid")
	}
	if again := reg.ContinueTrace(ctx, SpanContext{}); again != ctx {
		t.Fatal("ContinueTrace displaced the in-process parent")
	}
	child, _ := reg.StartSpan(ctx, "test.child")
	if child.Context().Trace != rootCtx.Trace {
		t.Fatalf("child trace %s != root trace %s", child.Context().Trace, rootCtx.Trace)
	}
	child.AddInt("backend", 0)
	child.AddInt("txs", 16)
	boom := errors.New("boom")
	child.End(nil, &boom)
	child.End(nil, &boom) // ending twice is a no-op
	root.End(nil, nil)

	trace := reg.FlightRecorder().Lookup(rootCtx.Trace)
	if trace == nil {
		t.Fatal("completed trace not in flight recorder")
	}
	if !trace.Err {
		t.Error("trace with a failed span not marked Err")
	}
	if trace.Root != "test.root" {
		t.Errorf("root name %q, want test.root", trace.Root)
	}
	if len(trace.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(trace.Spans))
	}
	var c *SpanRecord
	for i := range trace.Spans {
		if trace.Spans[i].Name == "test.child" {
			c = &trace.Spans[i]
		}
	}
	if c == nil {
		t.Fatal("child span missing from assembled trace")
	}
	if c.Parent != rootCtx.Span {
		t.Errorf("child parent %s, want %s", c.Parent, rootCtx.Span)
	}
	if !c.Err {
		t.Error("child span not marked failed")
	}
	if len(c.Attrs) != 2 {
		t.Errorf("child attrs %v, want backend + txs", c.Attrs)
	}
}

// spanSites runs the calls every span site in the pipeline makes: start,
// annotate, a stage mark, read the wire identity, and the deferred end
// with the function's error.
func spanSites(reg *Registry, ctx context.Context, h *Histogram, n int64) {
	var err error
	sp, ctx := reg.StartSpan(reg.ContinueTrace(ctx, SpanContext{}), "test.sites")
	defer sp.End(h, &err)
	sp.AddInt("n", n)
	sp.Mark(h)
	_ = sp.Context()
	child, _ := reg.StartSpan(ctx, "test.sites_child")
	child.End(nil, nil)
}

// TestTraceDisabledZeroAllocs pins the span's two untraced states to
// the same bar as the metric instruments. Off (nil registry — the
// default) costs one nil check per call and never reads the clock or the
// context; timed (metrics on, tracing never enabled — the case the old
// value-type stopwatch covered) reads the clock and feeds the histogram.
// Neither allocates.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	var nilReg *Registry
	if nilReg.Tracer() != nil {
		t.Fatal("nil registry handed out a live tracer")
	}
	timed := NewRegistry()
	if timed.Tracer() != nil {
		t.Fatal("registry without EnableTracing handed out a live tracer")
	}
	h := timed.Histogram("hardtape_sites_seconds", "span sites", nil)

	// A nil context proves the off path never touches it.
	if allocs := testing.AllocsPerRun(1000, func() {
		spanSites(nilReg, nil, nil, 7)
		nilReg.FlightRecorder().TakeSpans(TraceID{})
		nilReg.FlightRecorder().Adopt(nil)
	}); allocs != 0 {
		t.Fatalf("nil registry allocated %v per op, want 0", allocs)
	}
	if sp, _ := nilReg.StartSpan(nil, "test.off"); !sp.start.IsZero() {
		t.Fatal("nil registry read the clock")
	}

	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() { spanSites(timed, ctx, h, 7) }); allocs != 0 {
		t.Fatalf("metrics on / tracing off allocated %v per op, want 0", allocs)
	}
	if h.Count() == 0 {
		t.Fatal("timed span did not feed its histogram")
	}
}

// BenchmarkTraceDisabledParity is the CI gate for the off path: it must
// report 0 B/op and 0 allocs/op.
func BenchmarkTraceDisabledParity(b *testing.B) {
	var nilReg *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spanSites(nilReg, nil, nil, int64(i))
	}
}

// BenchmarkSpanMetricsOnlyParity is the CI gate for the timed state
// (metrics on, tracing off): 0 B/op and 0 allocs/op.
func BenchmarkSpanMetricsOnlyParity(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("hardtape_sites_seconds", "span sites", nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanSites(reg, ctx, h, int64(i))
	}
}

// TestTailSampling drives the sampler with synthetic, fixed-duration
// roots: warmup keeps everything, then only errors and roots at or
// above the keep quantile of the recent window survive.
func TestTailSampling(t *testing.T) {
	r := NewRecorder(512)
	defer r.Close()

	seq := uint64(0)
	push := func(d time.Duration, failed bool) TraceID {
		seq++
		id := mkTraceID(seq)
		r.spanStarted(id, true)
		r.spanEnded(SpanRecord{
			Trace: id, Span: SpanID{1}, Name: "t.root",
			Start: time.Now(), Duration: d, Err: failed,
		}, true)
		return id
	}

	// Fill the warmup with uniform 10ms roots: all kept.
	for i := 0; i < recorderWarmup; i++ {
		if id := push(10*time.Millisecond, false); r.Lookup(id) == nil {
			t.Fatalf("warmup trace %d not kept", i)
		}
	}
	// Post-warmup: a fast clean root is below the 10ms threshold.
	if id := push(time.Millisecond, false); r.Lookup(id) != nil {
		t.Error("fast clean trace kept; want dropped by tail sampling")
	}
	// A slow root is at/above the threshold.
	if id := push(20*time.Millisecond, false); r.Lookup(id) == nil {
		t.Error("slow trace dropped; want kept (tail)")
	}
	// A fast root with an error is always kept.
	if id := push(time.Millisecond, true); r.Lookup(id) == nil {
		t.Error("error trace dropped; want kept unconditionally")
	}
	st := r.Stats()
	if st.Dropped == 0 {
		t.Error("sampler reported zero drops")
	}
	if st.ErrKept == 0 {
		t.Error("sampler reported zero error keeps")
	}
}

// TestRecorderExpiry covers the janitor path directly: a pending
// segment whose trace never completes is expired; error-bearing
// partials are published, clean ones are dropped silently.
func TestRecorderExpiry(t *testing.T) {
	r := NewRecorder(8)
	defer r.Close()

	clean := mkTraceID(1001)
	r.Adopt([]SpanRecord{{Trace: clean, Span: SpanID{1}, Name: "t.partial", Start: time.Now()}})
	failed := mkTraceID(1002)
	r.Adopt([]SpanRecord{{Trace: failed, Span: SpanID{2}, Name: "t.partial", Start: time.Now(), Err: true}})

	r.expireStale(time.Now().Add(time.Hour))

	if r.Lookup(clean) != nil {
		t.Error("clean expired partial was published")
	}
	if r.Lookup(failed) == nil {
		t.Error("error-bearing expired partial was not published")
	}
	if st := r.Stats(); st.Expired != 2 || st.Pending != 0 {
		t.Errorf("stats after expiry: %+v, want Expired 2 Pending 0", st)
	}
}

// TestRecorderCloseGoroutineLeak: every recorder starts a janitor;
// Close must stop it. Mirrors the admin server leak test.
func TestRecorderCloseGoroutineLeak(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 32; i++ {
		r := NewRecorder(4)
		r.spanStarted(mkTraceID(uint64(i+1)), true)
		r.Close()
		r.Close() // idempotent
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after recorder churn", before, runtime.NumGoroutine())
}

// TestTakeSpansAdopt is the cross-process shipping contract in one
// process: a "remote" recorder accumulates a trace segment rooted
// elsewhere, TakeSpans drains it, Adopt files it locally, and the
// local root completion assembles one contiguous tree.
func TestTakeSpansAdopt(t *testing.T) {
	localReg, remoteReg := NewRegistry(), NewRegistry()
	localReg.EnableTracing("gateway", 8)
	remoteReg.EnableTracing("device", 8)
	defer localReg.FlightRecorder().Close()
	defer remoteReg.FlightRecorder().Close()

	root, _ := localReg.StartSpan(localReg.ContinueTrace(context.Background(), SpanContext{}), "test.root")
	id := root.Context().Trace

	// Remote side serves under the propagated context.
	rsp, rctx := remoteReg.StartSpan(remoteReg.ContinueTrace(context.Background(), root.Context()), "test.remote")
	rchild, _ := remoteReg.StartSpan(rctx, "test.remote_child")
	rchild.End(nil, nil)
	rsp.End(nil, nil)
	shipped := remoteReg.FlightRecorder().TakeSpans(id)
	if len(shipped) != 2 {
		t.Fatalf("TakeSpans returned %d spans, want 2", len(shipped))
	}
	if again := remoteReg.FlightRecorder().TakeSpans(id); len(again) != 0 {
		t.Fatalf("second TakeSpans returned %d spans, want 0", len(again))
	}

	localReg.FlightRecorder().Adopt(shipped)
	root.End(nil, nil)

	trace := localReg.FlightRecorder().Lookup(id)
	if trace == nil {
		t.Fatal("trace not assembled after adoption")
	}
	if len(trace.Spans) != 3 {
		t.Fatalf("assembled trace has %d spans, want 3", len(trace.Spans))
	}
	procs := map[string]bool{}
	for _, s := range trace.Spans {
		procs[s.Proc] = true
	}
	if !procs["gateway"] || !procs["device"] {
		t.Errorf("trace procs %v, want gateway and device segments", procs)
	}
}

// TestConcurrentTraceRecording hammers one tracer from many goroutines
// while readers walk the ring — the -race harness for the recorder's
// lock-free publication path.
func TestConcurrentTraceRecording(t *testing.T) {
	reg := NewRegistry()
	reg.EnableTracing("race", 16)
	rec := reg.FlightRecorder()
	defer rec.Close()
	h := reg.Histogram("hardtape_trace_race_seconds", "race", nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root, ctx := reg.StartSpan(reg.ContinueTrace(context.Background(), SpanContext{}), "race.root")
				child, _ := reg.StartSpan(ctx, "race.child")
				child.AddInt("i", int64(i))
				child.End(nil, nil)
				var err error
				if g%2 == 0 {
					err = errors.New("induced")
				}
				root.End(h, &err)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { // concurrent readers against the ring and stats
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, tce := range rec.Traces() {
				_ = tce.Root
			}
			_ = rec.Stats()
		}
	}()
	wg.Wait()
	<-done
	if st := rec.Stats(); st.Kept == 0 {
		t.Error("no traces kept under concurrent recording")
	}
	if ts := rec.Traces(); len(ts) == 0 || ts[0].ID.IsZero() {
		t.Error("no exemplar id after traced observations")
	}
}

// TestHistogramExemplar: a traced span's observation stamps its
// bucket's exemplar; an untraced one records plainly without clearing it.
func TestHistogramExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hardtape_trace_ex_seconds", "exemplar", []float64{0.001, 1})
	id := mkTraceID(7)
	h.observe(0.5, id)
	h.Observe(0.5)
	h.observe(0.25, TraceID{}) // zero id: plain record
	ex := h.BucketExemplar(1)
	if ex == nil || ex.Trace != id || ex.Value != 0.5 {
		t.Fatalf("bucket exemplar %+v, want trace %s value 0.5", ex, id)
	}
	snap := reg.Snapshot()
	found := false
	for _, m := range snap.Metrics {
		if m.Name != "hardtape_trace_ex_seconds" {
			continue
		}
		for _, b := range m.Buckets {
			if b.Exemplar != nil && b.Exemplar.TraceID == id.String() {
				found = true
			}
		}
	}
	if !found {
		t.Error("exemplar trace id missing from registry snapshot (/metrics.json)")
	}
}

// TestAdminTraceEndpoints scrapes the flight recorder over the admin
// server: index, one trace as JSON, and the chrome trace-event form.
func TestAdminTraceEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.EnableTracing("admin", 8)
	defer reg.FlightRecorder().Close()

	root, ctx := reg.StartSpan(reg.ContinueTrace(context.Background(), SpanContext{}), "admin.root")
	id := root.Context().Trace.String()
	child, _ := reg.StartSpan(ctx, "admin.child")
	child.End(nil, nil)
	root.End(nil, nil)

	a, err := StartAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	base := "http://" + a.Addr()

	if code, body := scrape(t, base+"/traces"); code != 200 || !strings.Contains(body, id) {
		t.Fatalf("/traces: %d\n%s", code, body)
	}
	code, body := scrape(t, base+"/traces/"+id)
	if code != 200 || !strings.Contains(body, `"admin.child"`) || !strings.Contains(body, `"proc"`) {
		t.Fatalf("/traces/%s: %d\n%s", id, code, body)
	}
	code, body = scrape(t, base+"/traces/"+id+"?format=chrome")
	if code != 200 || !strings.Contains(body, `"traceEvents"`) || !strings.Contains(body, `"ph"`) {
		t.Fatalf("chrome format: %d\n%s", code, body)
	}
	if code, _ := scrape(t, base+"/traces/"+fmt.Sprintf("%032x", 12345)); code != 404 {
		t.Fatalf("unknown trace id: %d, want 404", code)
	}
	if code, _ := scrape(t, base+"/traces/nonsense"); code != 400 {
		t.Fatalf("malformed trace id: %d, want 400", code)
	}
}
