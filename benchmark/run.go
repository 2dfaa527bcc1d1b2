package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hardtape/internal/types"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	Workload string
	Seed     int64
	// Seconds is how long the run measures: the timed phase with tracing
	// off, or the loaded phase plus the ladder with tracing on.
	Seconds float64
	Trace   bool
	// WarmUp precedes the measured phase so lazily dialed backend
	// sessions, code caches and pools are in their steady state.
	WarmUp time.Duration
	// Setups is how many times the topology is set up and timed (the
	// median is reported); the first one serves the run.
	Setups int
	// MinRungOps is the least number of operations per ladder rung.
	MinRungOps int
	// OutDir receives the Chrome trace of a traced run.
	OutDir string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one run — the JSON object printed last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// notes are human-readable remarks (first failure, tripped validity
	// diagnostics); they go to the report, not into the JSON line.
	notes []string
}

// runWorkload sets the workload's topology up, generates its bundles
// from the seed, takes the oracle's reference traces, and runs either
// the timed phase (end-to-end metrics) or the traced run (per-layer).
func runWorkload(cfg runConfig) (*runResult, error) {
	spec := findWorkload(cfg.Workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	ref := newRefClock()
	t, setup, err := timedSetup(spec, cfg.Seed, ref)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
	}
	defer func() { t.Close() }()

	// Bundle selection and the arrival schedule are seeded apart from
	// the world so one does not shift the other's stream.
	rng := newRNG(cfg.Seed)
	bundles, err := spec.generate(t, rng, spec.Population)
	if err != nil {
		return nil, fmt.Errorf("%s: generate bundles: %w", spec.Name, err)
	}
	if len(bundles) == 0 {
		return nil, fmt.Errorf("%s: no bundles generated", spec.Name)
	}
	o, err := buildOracle(t, bundles)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}

	if cfg.Trace {
		return tracedRun(cfg, t, bundles, o, rng)
	}
	res, err := timedRun(cfg, t, bundles, o)
	if err != nil {
		return nil, err
	}

	// Set-up again, timed only: one set-up per run is one sample, and a
	// single sample of a sub-second operation is too noisy to gate on.
	setups := []float64{setup}
	t.Close()
	for i := 1; i < cfg.Setups; i++ {
		extra, s, err := timedSetup(spec, cfg.Seed, ref)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", spec.Name, i+1, err)
		}
		setups = append(setups, s)
		extra.Close()
	}
	res.Metrics["setup_s"] = metricValue{median(setups), "s"}
	return res, nil
}

// setupRefTime is how long the reference kernel runs before and after
// each timed set-up.
const setupRefTime = 10 * time.Millisecond

// timedSetup stands the topology up between two bursts of reference
// slices and returns it with its set-up time in seconds at reference
// machine speed (wall clock over the scale the slices' slowdown gives).
func timedSetup(spec *workloadSpec, seed int64, ref *refClock) (*topology, float64, error) {
	ref.run(setupRefTime)
	t, err := buildTopology(spec, seed)
	if err != nil {
		return nil, 0, err
	}
	ref.run(setupRefTime)
	return t, t.setupDur.Seconds() / refScale(slowdown(ref.take()), spec.RefShare), nil
}

// newRNG is the harness's own seeded stream (bundle selection, arrival
// schedule), apart from the world generator's.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eedb0d1e5)) }

// loadPhase runs the workload's closed loop for dur: C clients, each
// sending its next bundle (or making its next visit) after the reply.
func loadPhase(spec *workloadSpec, t *topology, sessions []*session, bundles []*types.Bundle, o *oracle, dur time.Duration) phaseResult {
	if spec.Churn {
		return churnLoop(t, spec.Clients, bundles, o, spec.ColdEvery, dur)
	}
	return closedLoop(sessions, bundles, o, dur)
}

// timedRun is the measured phase with tracing off.
func timedRun(cfg runConfig, t *topology, bundles []*types.Bundle, o *oracle) (*runResult, error) {
	spec := t.spec
	var sessions []*session
	if !spec.Churn {
		var err error
		if sessions, err = dialSessions(t, t.frontAddr, spec.Clients); err != nil {
			return nil, err
		}
		defer closeSessions(sessions)
	}

	warm := loadPhase(spec, t, sessions, bundles, o, cfg.WarmUp)
	if warm.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %d of %d requests failed: %s",
			spec.Name, warm.failed, warm.attempted, warm.firstFailure)
	}

	// Start every run from a collected heap so the phase's allocation
	// and GC figures do not depend on set-up garbage.
	runtime.GC()
	sliceObjects, sliceBytes := refSliceAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Resident set every 100 ms; the 90th percentile is reported: close
	// to the peak one has to provision for, but — unlike the kernel's
	// high-water mark — not set by one allocation spike between two GC
	// cycles (VmHWM spread 13–20 % over ten runs where the live heap is
	// small; this reads within 2 %).
	rss := startSampler(100*time.Millisecond, rssNowMB)
	ph := loadPhase(spec, t, sessions, bundles, o, time.Duration(cfg.Seconds*float64(time.Second)))
	rssP90 := percentile(sortedCopy(rss.stop()), 90)
	runtime.ReadMemStats(&after)

	res := &runResult{
		Correct:   ph.failed == 0 && ph.attempted > 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   make(map[string]metricValue),
	}
	if ph.failed > 0 {
		res.notes = append(res.notes, "first failure: "+ph.firstFailure)
	}
	if len(ph.latencies) == 0 {
		return nil, fmt.Errorf("%s: no request completed: %s", spec.Name, ph.firstFailure)
	}
	// Timings are reported at reference machine speed: wall clock scaled
	// by how slow the reference slices ran between the requests.
	slow := slowdown(ph.ref)
	scale := refScale(slow, spec.RefShare)
	lat := sortedCopy(inUnits(ph.latencies, time.Millisecond))
	txs := float64(ph.txs)
	res.Metrics["goodput_ref_tx_per_s"] = metricValue{ph.goodput * scale, "tx/s"}
	res.Metrics["latency_p50_ref_ms"] = metricValue{percentile(lat, 50) / scale, "ms"}
	res.Metrics["latency_p90_ref_ms"] = metricValue{percentile(lat, 90) / scale, "ms"}
	res.notes = append(res.notes, fmt.Sprintf(
		"wall clock at machine slowdown %.3f (%d reference slices, scale %.3f): goodput %.2f tx/s, latency p50 %.3f p90 %.3f p%g %.3f ms",
		slow, len(ph.ref), scale, ph.goodput, percentile(lat, 50), percentile(lat, 90), tailPercentile(len(lat)), percentile(lat, tailPercentile(len(lat)))))
	// The process-wide allocation counters, less what the reference
	// slices allocated.
	slices := float64(len(ph.ref))
	res.Metrics["allocs_per_tx"] = metricValue{(float64(after.Mallocs-before.Mallocs) - slices*sliceObjects) / txs, "count"}
	res.Metrics["alloc_kb_per_tx"] = metricValue{(float64(after.TotalAlloc-before.TotalAlloc) - slices*sliceBytes) / 1024 / txs, "KB"}
	res.Metrics["rss_p90_mb"] = metricValue{rssP90, "MB"}
	return res, nil
}

// rssNowMB is the resident set size (VmRSS). Where /proc is not
// available it falls back to the memory the Go runtime holds mapped.
func rssNowMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmRSS:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys-m.HeapReleased) / (1 << 20)
}
