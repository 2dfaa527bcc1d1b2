package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"hardtape/internal/core"
	"hardtape/internal/telemetry"
)

// traceSweep measures what end-to-end tracing costs on the bundle
// path. Two identical -full devices (parallel lanes, sharded ORAM)
// pre-execute the same high-conflict MEV bundle stream through the same
// call sites; one runs with telemetry attached but tracing disabled
// (every span timed only, 0 allocs), the other with the tail-sampling
// flight recorder on, so every bundle roots a trace. Wall-clock time is
// the real host cost — the virtual clock models the hardware and does
// not move with tracing. The note names one captured trace as a shape
// witness; the second table is what the recorder kept.
func traceSweep(env *Env, _ int) ([]Table, error) {
	const (
		lanes        = 4
		shards       = 4
		conflictRate = 0.5
		bundles      = 8
	)
	txs := min(16, len(env.World.EOAs))
	bundle, err := env.World.MEVBundle(txs, conflictRate)
	if err != nil {
		return nil, err
	}

	mkDevice := func(reg *telemetry.Registry) (*core.Device, error) {
		cfg := core.DefaultConfig()
		cfg.Features = core.ConfigFull
		cfg.HEVMs = 1
		cfg.Lanes = lanes
		cfg.ORAMShards = shards
		cfg.Telemetry = reg
		return env.newDevice(cfg, nil)
	}

	// run roots one "bench.bundle" span per bundle on reg; while reg has
	// no tracer the same call sites are timed only.
	run := func(dev *core.Device, reg *telemetry.Registry, n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			sp, ctx := reg.StartSpan(reg.ContinueTrace(context.Background(), telemetry.SpanContext{}), "bench.bundle")
			res, err := dev.ExecuteContext(ctx, bundle)
			if err == nil && res.Aborted != nil {
				err = res.Aborted
			}
			sp.End(nil, &err)
			if err != nil {
				return 0, fmt.Errorf("bench: trace sweep bundle %d: %w", i, err)
			}
		}
		return time.Since(start), nil
	}

	// Disabled row: registry attached (metrics live), tracer nil.
	offReg := telemetry.NewRegistry()
	offDev, err := mkDevice(offReg)
	if err != nil {
		return nil, fmt.Errorf("bench: trace sweep disabled device: %w", err)
	}
	if _, err := run(offDev, offReg, 2); err != nil { // warm ORAM stash and caches
		return nil, err
	}
	offWall, err := run(offDev, offReg, bundles)
	if err != nil {
		return nil, err
	}

	// Traced row: same device shape, flight recorder on.
	onReg := telemetry.NewRegistry()
	onDev, err := mkDevice(onReg)
	if err != nil {
		return nil, fmt.Errorf("bench: trace sweep traced device: %w", err)
	}
	onReg.EnableTracing("bench", 0)
	defer onReg.FlightRecorder().Close()
	if _, err := run(onDev, onReg, 2); err != nil {
		return nil, err
	}
	onWall, err := run(onDev, onReg, bundles)
	if err != nil {
		return nil, err
	}

	row := func(name string, wall time.Duration) Row {
		return Row{Name: name, Params: []Field{count("bundles", bundles)}, Measured: []Field{
			ns("wall", wall), ns("wall_per_bundle", wall/bundles),
			num("overhead", "%", (float64(wall)/float64(offWall)-1)*100),
		}}
	}
	sweep := Table{
		Name: "trace",
		Title: fmt.Sprintf("TRACING OVERHEAD — %d-tx MEV bundles (rate %.2f), -full device, %d lanes",
			txs, conflictRate, lanes),
		Note: "expected shape: single-digit overhead when traced; the disabled row\n" +
			"is metrics on / tracing off (spans timed only, 0 allocs)",
		Rows: []Row{row("disabled", offWall), row("traced", onWall)},
	}

	rec := onReg.FlightRecorder()
	st := rec.Stats()
	recorder := Table{
		Name:  "trace_recorder",
		Title: "TRACING OVERHEAD — what the flight recorder kept",
		Rows: []Row{{Name: "recorder", Measured: []Field{
			count("kept", st.Kept), count("err_kept", st.ErrKept), count("dropped", st.Dropped),
			count("expired", st.Expired), count("pending", st.Pending),
		}}},
	}
	if kept := rec.Traces(); len(kept) > 0 {
		names := map[string]bool{}
		for _, s := range kept[0].Spans {
			names[s.Name] = true
		}
		spans := make([]string, 0, len(names))
		for n := range names {
			spans = append(spans, n)
		}
		sort.Strings(spans)
		sweep.Note += fmt.Sprintf("\nsample trace %s spans: %s", kept[0].ID, strings.Join(spans, ", "))
	}
	return []Table{sweep, recorder}, nil
}
