package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSmoke brings every workload's topology up over loopback TCP,
// drives the timed phase and the traced run in -smoke settings, and
// checks what tier-1 can check without measuring anything: every reply
// matches the oracle, exactly the declared metric names come out, the
// Chrome trace is written, and shutdown leaves no goroutine behind.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for _, trace := range []int{0, 1} {
				cfg := options{workload: spec.Name, seed: 19145194, trace: trace, smoke: true, out: out}.config()
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d notes=%v",
						trace, res.Correct, res.Attempted, res.Failed, res.notes)
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace %d: %d metrics emitted, %d declared", trace, len(res.Metrics), len(defs))
				}
				for _, def := range defs {
					v, ok := res.Metrics[def.Name]
					if !ok {
						t.Errorf("trace %d: metric %s not emitted", trace, def.Name)
					} else if v.Unit != def.Unit {
						t.Errorf("metric %s: unit %q, declared %q", def.Name, v.Unit, def.Unit)
					} else if trace == 0 && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, must never be 0", def.Name, v.Value)
					}
				}
			}
			checkChromeTrace(t, out, spec.Name)
			waitForGoroutines(t, before)
		})
	}
}

func checkChromeTrace(t *testing.T, dir, workload string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "trace-"+workload+"-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("chrome trace files: %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"loadgen.request", "conn.write", "conn.wait", "conn.read"} {
		if !names[want] {
			t.Errorf("chrome trace has no %s span", want)
		}
	}
}

// waitForGoroutines fails if the goroutine count does not come back to
// what it was before the topology was built. Accept loops and
// connection readers end shortly after their sockets close, so poll.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines before, %d after shutdown:\n%s", before, n, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
