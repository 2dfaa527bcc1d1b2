package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100, already ascending
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g of 1..100 = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance check uses.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3.1, 0.2, 7.7, 4.4, 9.0, 1.5, 6.3], n=4) == [1.5, 4.4, 7.7]
	q1, q2, q3 = quartiles([]float64{3.1, 0.2, 7.7, 4.4, 9.0, 1.5, 6.3})
	if math.Abs(q1-1.5) > 1e-12 || math.Abs(q2-4.4) > 1e-12 || math.Abs(q3-7.7) > 1e-12 {
		t.Errorf("quartiles = %g %g %g, want 1.5 4.4 7.7", q1, q2, q3)
	}
	if got := iqrSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrSpread(1..10) = %g, want 1", got)
	}
	if got := iqrSpread([]float64{1, 2, 3}); got != 0 {
		t.Errorf("iqrSpread of three values = %g, want 0 (too few to tell)", got)
	}
}

func TestLadderDeltasTelescopeToTopRung(t *testing.T) {
	medians := []float64{14, 21, 168, 731, 5191, 6191, 6880}
	deltas := ladderDeltas(medians)
	sum := 0.0
	for _, d := range deltas {
		sum += d
	}
	if sum != medians[len(medians)-1] {
		t.Errorf("deltas sum to %g, top rung is %g", sum, medians[len(medians)-1])
	}
	if deltas[0] != 14 || deltas[4] != 4460 {
		t.Errorf("deltas = %v", deltas)
	}
	if n := negativeRungs(deltas); n != 0 {
		t.Errorf("negativeRungs = %d, want 0", n)
	}
	// A rung 10 % of the top below its neighbour trips the diagnostic;
	// one 1 % below does not.
	if n := negativeRungs(ladderDeltas([]float64{100, 1000, 900, 995, 985})); n != 1 {
		t.Errorf("negativeRungs = %d, want 1", n)
	}
}

func at(base time.Time, usec int) time.Time {
	return base.Add(time.Duration(usec) * time.Microsecond)
}

// Self time is the span minus the part its children cover; children
// that overlap each other are not subtracted twice.
func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	b := time.Unix(1000, 0)
	spans := []span{
		{ID: 1, Name: "root", Start: at(b, 0), End: at(b, 1000)},
		{ID: 2, Parent: 1, Name: "a", Start: at(b, 100), End: at(b, 300)},
		{ID: 3, Parent: 1, Name: "b", Start: at(b, 200), End: at(b, 500)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(b, 900), End: at(b, 1100)}, // sticks out
		{ID: 5, Parent: 3, Name: "d", Start: at(b, 250), End: at(b, 350)},
	}
	fillSelfTimes(spans)
	want := map[string]time.Duration{
		"root": 500 * time.Microsecond, // 1000 − [100,500) − [900,1000)
		"a":    200 * time.Microsecond,
		"b":    200 * time.Microsecond, // 300 − d's 100
		"c":    200 * time.Microsecond,
		"d":    100 * time.Microsecond,
	}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestRequestSpansFromConnActivity(t *testing.T) {
	b := time.Unix(2000, 0)
	act := connActivity{
		writes: []ioEvent{{at(b, 10), at(b, 20), 4}, {at(b, 20), at(b, 40), 500}},
		reads: []ioEvent{
			{at(b, -500), at(b, 5), 4},   // previous reply's tail: before the write, ignored
			{at(b, 5), at(b, 840), 4},    // blocked since before the request: first reply byte
			{at(b, 840), at(b, 900), 96}, // reply body
		},
	}
	server := []interval{
		{Name: "oram.server.read_paths", Start: at(b, 100), End: at(b, 300)},
		{Name: "oram.server.read_paths", Start: at(b, 200), End: at(b, 400)},    // second shard, overlapping
		{Name: "oram.server.write_paths", Start: at(b, 5000), End: at(b, 5100)}, // another request's
	}
	spans := requestSpans(7, at(b, 0), at(b, 910), act, server)
	fillSelfTimes(spans)
	byName := selfTimesByName([][]span{spans})
	check := func(name string, want time.Duration) {
		t.Helper()
		if got := byName[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self(%s) = %v, want [%v]", name, got, want)
		}
	}
	check("conn.write", 30*time.Microsecond)
	check("conn.wait", 500*time.Microsecond) // 800 − union[100,400)
	check("conn.read", 60*time.Microsecond)
	check("oram.server.read_paths", 400*time.Microsecond) // both calls, summed per request
	check("loadgen.request", 20*time.Microsecond)         // 910 − write 30 − wait 800 − read 60
	if _, ok := byName["oram.server.write_paths"]; ok {
		t.Error("a server call outside the request was attached to it")
	}
	if spans[0].ID != 7 || spans[1].Parent != 7 {
		t.Errorf("ids/parents wrong: %+v", spans[:2])
	}
}

// In an open loop a request's latency runs from when it was due. With
// the generator stalled behind a slow request, later requests leave
// late, and that wait must show in their latency and in the lag.
func TestOpenLoopChargesGeneratorStallToLaterRequests(t *testing.T) {
	const service = 30 * time.Millisecond
	schedule := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	var (
		mu        sync.Mutex
		latencies = make([]time.Duration, len(schedule))
	)
	lags := pace(schedule, 1, func(k int, due time.Time) {
		time.Sleep(service)
		mu.Lock()
		latencies[k] = time.Since(due)
		mu.Unlock()
	})
	if len(lags) != len(schedule) {
		t.Fatalf("%d lags for %d arrivals", len(lags), len(schedule))
	}
	// Request 2 was due at 2 ms but could only leave after two service
	// times; its latency is about three of them, not one.
	if latencies[2] < 2*service+service/2 {
		t.Errorf("stalled request's latency %v does not include the stall (service time %v)", latencies[2], service)
	}
	if lags[2] < service {
		t.Errorf("generator lag %v does not show the stall", lags[2])
	}
	if lags[0] > service {
		t.Errorf("first request left %v late with nothing in its way", lags[0])
	}
}

func TestArrivalScheduleIsSeededAndFixedCount(t *testing.T) {
	a := arrivalSchedule(newRNG(7), 80, 2*time.Second)
	b := arrivalSchedule(newRNG(7), 80, 2*time.Second)
	c := arrivalSchedule(newRNG(8), 80, 2*time.Second)
	if len(a) != 160 || len(c) != 160 {
		t.Fatalf("arrivals: %d and %d, want 160 each", len(a), len(c))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

// The machine's slowdown is the mean reference slice over the nominal
// one, with the slowest tenth left out: a slice that was descheduled
// half-way measured the scheduler, not the machine.
func TestSlowdownTrimsSlowestTenth(t *testing.T) {
	if got := slowdown(nil); got != 1 {
		t.Errorf("slowdown of no slices = %g, want 1", got)
	}
	slices := make([]time.Duration, 20)
	for i := range slices {
		slices[i] = 2 * refNominal
	}
	if got := slowdown(slices); got != 2 {
		t.Errorf("slowdown of slices at twice nominal = %g, want 2", got)
	}
	slices[3], slices[11] = 100*refNominal, 50*refNominal // two of twenty: exactly the trimmed tenth
	if got := slowdown(slices); got != 2 {
		t.Errorf("slowdown with two descheduled slices = %g, want 2", got)
	}
	slices[5] = 100 * refNominal // a third outlier is no longer trimmed
	if got := slowdown(slices); got <= 2 {
		t.Errorf("slowdown = %g, want the third slow slice to count", got)
	}
	// Only the share of a timing that slows with the kernel is scaled.
	if got := refScale(1.5, 1); got != 1.5 {
		t.Errorf("refScale(1.5, 1) = %g, want 1.5", got)
	}
	if got := refScale(1.5, 0.5); got != 1.25 {
		t.Errorf("refScale(1.5, 0.5) = %g, want 1.25", got)
	}
	if got := refScale(1, 0.7); got != 1 {
		t.Errorf("refScale at nominal speed = %g, want 1", got)
	}
}

func TestRefClockRunsAtLeastOneSliceAndTheAskedTime(t *testing.T) {
	c := newRefClock()
	c.run(0)
	if n := len(c.take()); n != 1 {
		t.Errorf("run(0) ran %d slices, want 1", n)
	}
	c.run(5 * time.Millisecond)
	var sum time.Duration
	for _, d := range c.take() {
		sum += d
	}
	if sum < 5*time.Millisecond {
		t.Errorf("run(5ms) ran slices for %v", sum)
	}
	if len(c.take()) != 0 {
		t.Error("take did not forget the slices")
	}
}

// A closed-loop client's rate is its transactions over the time it
// spent in requests (the reference slices in between are think time),
// and the phase's goodput is the sum over its clients.
func TestGoodputSumsPerClientRatesOverTimeInRequests(t *testing.T) {
	var c collector
	c.finish(&loopClient{busy: 2 * time.Second, txs: 100, ref: newRefClock()})
	c.finish(&loopClient{busy: time.Second, txs: 100, ref: newRefClock()})
	c.finish(&loopClient{ref: newRefClock()}) // a client that never got a reply
	if c.res.goodput != 150 {
		t.Errorf("goodput = %g tx/s, want 50 + 100", c.res.goodput)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ref_ms", Unit: "ms", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "goodput_ref_tx_per_s", Unit: "tx/s", Better: "higher", Bound: 0.08}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	noisy := []float64{8, 12, 10, 14, 6}
	for _, tc := range []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"within bound", lower, steady, []float64{10.3, 10.4, 10.2, 10.35, 10.25}, verdictOK},
		{"slower beyond bound", lower, steady, []float64{11.5, 11.6, 11.4, 11.5, 11.5}, verdictRegression},
		{"faster", lower, steady, []float64{8, 8.1, 7.9, 8, 8}, verdictOK},
		{"less goodput", higher, steady, []float64{8, 8.1, 7.9, 8, 8}, verdictRegression},
		{"more goodput", higher, steady, []float64{12, 12.1, 11.9, 12, 12}, verdictOK},
		{"spread wider than bound", lower, noisy, steady, verdictUnresolved},
		{"noisy but every run better", lower, noisy, []float64{4, 4.1, 3.9, 4, 4}, verdictOK},
		{"single runs", lower, []float64{10}, []float64{12}, verdictRegression},
	} {
		if got := compareMetric(tc.def, tc.old, tc.new).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json at the repository root is generated from the metric
// tables (`go run ./benchmark -spec`); what the program emits and what
// the file declares must be the same set of names.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
}
