// Fleet demo: pool three HarDTAPE devices behind the gateway, push a
// burst of bundles through it, kill one device mid-run, and watch the
// fleet degrade gracefully — accepted bundles fail over to the
// survivors, over-capacity submissions get a typed ErrOverloaded, and
// the drained device is re-admitted after it recovers. The finale
// traces one high-conflict MEV bundle end to end and prints the span
// tree the flight recorder captured.
//
//	go run ./examples/fleet
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hardtape"
	"hardtape/internal/telemetry"
	"hardtape/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Three devices (2 HEVMs each) over one world, behind a gateway
	//    with a deliberately small admission queue.
	fmt.Println("① Provisioning 3 devices (2 HEVMs each) + gateway...")
	reg := hardtape.NewTelemetry()
	reg.EnableTracing("fleet", 0)
	defer reg.FlightRecorder().Close()
	opts := hardtape.DefaultTestbedOptions()
	opts.HEVMs = 2
	opts.Lanes = 2 // parallel lanes, so conflicts re-execute (and trace)
	opts.Telemetry = reg
	fcfg := hardtape.DefaultFleetConfig()
	fcfg.QueueDepth = 8
	fcfg.HealthInterval = 20 * time.Millisecond
	fcfg.Telemetry = reg
	ftb, err := hardtape.NewFleetTestbed(opts, 3, fcfg)
	if err != nil {
		return err
	}
	g := ftb.Gateway
	defer g.Close()
	fmt.Printf("   fleet capacity: %d HEVM slots, queue depth %d\n", g.SlotCount(), fcfg.QueueDepth)

	// 2. Burst 24 swap bundles at a fleet of 6 slots + 8 queue spots.
	//    Mid-burst, dev-1 "loses power".
	fmt.Println("② Bursting 24 bundles; killing dev-1 mid-run...")
	var (
		completed, overloaded, failed atomic.Uint64
		killOnce                      sync.Once
		wg                            sync.WaitGroup
	)
	for i := 0; i < 24; i++ {
		dex := ftb.World.DEXes[0]
		from := ftb.World.EOAs[i%len(ftb.World.EOAs)]
		tx, err := ftb.World.SignedTxAt(from, 0, &dex, 0, workload.CalldataSwap(100+uint64(i)), 400_000)
		if err != nil {
			return err
		}
		bundle := &hardtape.Bundle{Txs: []*hardtape.Transaction{tx}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := g.ExecuteContext(context.Background(), bundle)
			switch {
			case errors.Is(err, hardtape.ErrOverloaded):
				overloaded.Add(1)
			case err != nil:
				failed.Add(1)
				fmt.Printf("   bundle %2d FAILED: %v\n", i, err)
			default:
				completed.Add(1)
				_ = res
				killOnce.Do(func() {
					fmt.Println("   ⚡ dev-1 killed")
					ftb.Backends[1].Kill()
				})
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("   completed %d, backpressured %d, failed %d\n",
		completed.Load(), overloaded.Load(), failed.Load())

	// 3. The gateway's registry series show the failover.
	st := g.Stats()
	fmt.Println("③ Fleet series after the burst:")
	for _, lb := range ftb.Backends {
		b := backendSeries(reg, lb.Name())
		state := "up"
		if b["healthy"] == 0 {
			state = "DOWN"
		}
		fmt.Printf("   %-6s %-4s dispatched %2.0f, failures %.0f\n",
			lb.Name(), state, b["dispatched_total"], b["failures_total"])
	}
	fmt.Printf("   queue wait p50 %v, p99 %v; retries %d\n",
		st.QueueWaitP50, st.QueueWaitP99, st.Retries)

	// 4. Power dev-1 back on: the health monitor re-admits it.
	fmt.Println("④ Reviving dev-1...")
	ftb.Backends[1].Revive()
	deadline := time.Now().Add(2 * time.Second)
	for backendSeries(reg, "dev-1")["healthy"] == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("dev-1 was not re-admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("   dev-1 healthy again; fleet slots free: %d/%d\n", g.FreeSlots(), g.SlotCount())

	// 5. End-to-end tracing: a high-conflict MEV bundle (every tx swaps
	//    on the same DEX pool) under a root span. Admission, dispatch,
	//    device stages, and every conflict re-execution land in one
	//    trace in the flight recorder.
	fmt.Println("⑤ Tracing one high-conflict MEV bundle end to end...")
	mev, err := ftb.World.MEVBundle(8, 1.0)
	if err != nil {
		return err
	}
	sp, ctx := reg.StartSpan(reg.ContinueTrace(context.Background(), telemetry.SpanContext{}), "demo.mev_bundle")
	res, err := g.ExecuteContext(ctx, mev)
	sp.End(nil, &err)
	if err != nil {
		return err
	}
	if res.Aborted != nil {
		return fmt.Errorf("mev bundle aborted: %w", res.Aborted)
	}
	id := sp.Context().Trace
	trace := reg.FlightRecorder().Lookup(id)
	if trace == nil {
		return fmt.Errorf("mev trace %s not captured", id)
	}
	fmt.Printf("   trace %s (%d spans, root %v) — /traces/%s on an -admin endpoint\n",
		trace.ID, len(trace.Spans), trace.Duration.Round(time.Microsecond), trace.ID)
	printTraceTree(trace)
	return nil
}

// backendSeries reads one backend's hardtape_fleet_backend_* series
// from the registry, keyed by the name after that prefix (healthy,
// in_flight, dispatched_total, failures_total).
func backendSeries(reg *hardtape.Telemetry, backend string) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range reg.Snapshot().Metrics {
		name, ok := strings.CutPrefix(m.Name, "hardtape_fleet_backend_")
		if ok && m.Labels["backend"] == backend && m.Value != nil {
			out[name] = *m.Value
		}
	}
	return out
}

// printTraceTree renders the captured span tree, children indented
// under parents and ordered by start time.
func printTraceTree(trace *hardtape.Trace) {
	children := make(map[telemetry.SpanID][]telemetry.SpanRecord)
	var roots []telemetry.SpanRecord
	for _, s := range trace.Spans {
		if s.Parent.IsZero() {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var walk func(s telemetry.SpanRecord, depth int)
	walk = func(s telemetry.SpanRecord, depth int) {
		attrs := ""
		for _, a := range s.Attrs {
			attrs += fmt.Sprintf(" %s=%d", a.Name, a.Int)
		}
		fmt.Printf("   %*s%-16s %-8s %8v%s\n", //hardtape:secret-ok span names are compile-time constants (telemetrysafe) and procs are deployment labels
			2*depth, "", s.Name, s.Proc, s.Duration.Round(time.Microsecond), attrs)
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}
