package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hardtape_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := reg.Gauge("hardtape_test_depth", "test gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("SetMax = %d, want 11", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("hardtape_x_total", "x")
	b := reg.Counter("hardtape_x_total", "x")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	// Distinct labels are distinct series under one family.
	l1 := reg.Counter("hardtape_y_total", "y", "backend", "dev-0")
	l2 := reg.Counter("hardtape_y_total", "y", "backend", "dev-1")
	if l1 == l2 {
		t.Fatal("distinct labels shared a series")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	reg.Gauge("hardtape_x_total", "x")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hardtape_test_seconds", "test hist", nil)
	for i := 0; i < 100; i++ {
		h.Observe(0.002) // lands in the (1e-3, 2.5e-3] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 0.19 || got > 0.21 {
		t.Fatalf("sum = %v", got)
	}
	p50 := h.Quantile(0.50)
	if p50 <= 1e-3 || p50 > 2.5e-3 {
		t.Fatalf("p50 = %v, want inside (1e-3, 2.5e-3]", p50)
	}
	if d := h.QuantileDuration(0.99); d <= 0 {
		t.Fatalf("p99 duration = %v", d)
	}

	// Values beyond the last bound land in +Inf and clamp.
	h2 := reg.Histogram("hardtape_test2_seconds", "test hist 2", nil)
	h2.Observe(1e9)
	if got := h2.Quantile(0.5); got != DurationBuckets[len(DurationBuckets)-1] {
		t.Fatalf("+Inf quantile = %v", got)
	}
}

func TestHistogramConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hardtape_conc_seconds", "concurrent", nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	want := float64(workers*per) * 0.001
	if got := h.Sum(); got < want*0.999 || got > want*1.001 {
		t.Fatalf("sum = %v, want ~%v", got, want)
	}
}

// TestDisabledZeroAllocs is the PR's overhead discipline, stated as a
// test: with telemetry disabled (nil registry → nil instruments,
// inactive spans) the whole instrumentation surface performs zero
// allocations. The pipeline records through exactly these calls, so
// this pins the disabled hot-path cost to branches only.
func TestDisabledZeroAllocs(t *testing.T) {
	var nilReg *Registry
	c := nilReg.Counter("hardtape_off_total", "disabled")
	g := nilReg.Gauge("hardtape_off_depth", "disabled")
	h := nilReg.Histogram("hardtape_off_seconds", "disabled", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(3)
		g.SetMax(9)
		h.Observe(0.5)
		h.ObserveDuration(time.Millisecond)
		sp, _ := nilReg.StartSpan(nil, "test.off")
		sp.Mark(h)
		sp.End(h, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %v per op, want 0", allocs)
	}
}

// TestEnabledRecordingZeroAllocs pins the enabled hot path too: a
// counter add and a histogram observe allocate nothing (registration
// is the only allocating step, done once at setup).
func TestEnabledRecordingZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hardtape_on_total", "enabled")
	h := reg.Histogram("hardtape_on_seconds", "enabled", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(0.002)
	})
	if allocs != 0 {
		t.Fatalf("enabled recording allocated %v per op, want 0", allocs)
	}
}

func TestSpanStages(t *testing.T) {
	reg := NewRegistry()
	h1 := reg.Histogram("hardtape_stage1_seconds", "stage 1", nil)
	h2 := reg.Histogram("hardtape_stage2_seconds", "stage 2", nil)
	total := reg.Histogram("hardtape_stages_seconds", "all stages", nil)
	sp, _ := reg.StartSpan(context.Background(), "test.stages")
	time.Sleep(time.Millisecond)
	sp.Mark(h1)
	sp.Mark(nil) // an optional stage that records nothing still advances
	sp.Mark(h2)
	sp.End(total, nil)
	sp.End(total, nil) // ending twice is a no-op
	if h1.Count() != 1 || h2.Count() != 1 || total.Count() != 1 {
		t.Fatalf("stages not recorded once each: %d %d %d", h1.Count(), h2.Count(), total.Count())
	}
	if total.Sum() < h1.Sum()+h2.Sum() {
		t.Fatalf("total (%v) shorter than its stages (%v + %v)", total.Sum(), h1.Sum(), h2.Sum())
	}
	if h1.Sum() < 0.0005 {
		t.Fatalf("stage 1 did not capture the sleep: %v", h1.Sum())
	}
	if h2.Sum() > h1.Sum() {
		t.Fatalf("stage 2 (%v) should be shorter than stage 1 (%v)", h2.Sum(), h1.Sum())
	}

	var off Span
	off.Mark(h1) // must not record
	off.End(h1, nil)
	if h1.Count() != 1 {
		t.Fatal("inactive span recorded")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hardtape_reqs_total", "requests", "outcome", "ok").Add(3)
	reg.Gauge("hardtape_depth", "queue depth").Set(2)
	h := reg.Histogram("hardtape_wait_seconds", "queue wait", nil)
	h.Observe(0.002)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP hardtape_reqs_total requests",
		"# TYPE hardtape_reqs_total counter",
		`hardtape_reqs_total{outcome="ok"} 3`,
		"# TYPE hardtape_depth gauge",
		"hardtape_depth 2",
		"# TYPE hardtape_wait_seconds histogram",
		`hardtape_wait_seconds_bucket{le="+Inf"} 1`,
		"hardtape_wait_seconds_count 1",
		"hardtape_wait_seconds_sum 0.002",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}

	// Cumulative buckets: the 0.0025 bucket already contains the
	// observation at 0.002.
	if !strings.Contains(out, `hardtape_wait_seconds_bucket{le="0.0025"} 1`) {
		t.Errorf("bucket counts not cumulative:\n%s", out)
	}

	// A nil registry renders empty without errors.
	var nilReg *Registry
	buf.Reset()
	if err := nilReg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry: err=%v len=%d", err, buf.Len())
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hardtape_reqs_total", "requests", "outcome", "ok").Add(3)
	h := reg.Histogram("hardtape_wait_seconds", "queue wait", nil)
	h.Observe(0.002)

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(snap.Metrics) != 2 {
		t.Fatalf("snapshot has %d metrics, want 2", len(snap.Metrics))
	}
	byName := map[string]MetricSnapshot{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	c := byName["hardtape_reqs_total"]
	if c.Type != "counter" || c.Value == nil || *c.Value != 3 || c.Labels["outcome"] != "ok" {
		t.Fatalf("counter snapshot wrong: %+v", c)
	}
	hs := byName["hardtape_wait_seconds"]
	if hs.Type != "histogram" || hs.Count == nil || *hs.Count != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	if hs.Buckets[len(hs.Buckets)-1].UpperBound != "+Inf" {
		t.Fatalf("last bucket bound = %q", hs.Buckets[len(hs.Buckets)-1].UpperBound)
	}
	if hs.Quantiles["p50"] <= 0 {
		t.Fatalf("quantiles missing: %+v", hs.Quantiles)
	}
}
