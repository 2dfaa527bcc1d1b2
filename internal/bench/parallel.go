package bench

import (
	"fmt"

	"hardtape/internal/core"
	"hardtape/internal/types"
)

// parallelSweep measures the optimistic intra-bundle scheduler across
// lane counts and conflict rates on the MEV-searcher workload
// (workload.MEVBundle): distinct senders, a conflictRate fraction of
// them hammering one DEX pool's reserve slots. Devices run -raw so the
// numbers isolate execution scaling from the per-bundle crypto and
// ORAM constants (Fig. 4's additive terms are unchanged by lanes).
// Traces stay byte-identical to sequential execution at every point —
// only the modeled time and the conflict counters move. One row is one
// cell of the sweep; speedup is sequential virtual time over the row's,
// at the same conflict rate.
func parallelSweep(env *Env) (Table, error) {
	laneCounts := []int{1, 2, 4, 8}
	rates := []float64{0, 0.25, 0.5, 1}
	txs := min(16, len(env.World.EOAs))
	t := Table{
		Name:  "parallel",
		Title: fmt.Sprintf("PARALLEL PRE-EXECUTION — lanes × conflict-rate sweep (%d-tx MEV bundles, -raw device)", txs),
		Note: "expected shape: speedup ≈ lanes at rate 0, decaying toward 1x as the\n" +
			"conflict rate forces the committer to re-execute serially; traces are\n" +
			"byte-identical to sequential execution at every cell",
	}
	devices := make(map[int]*core.Device, len(laneCounts))
	mkDevice := func(lanes int) (*core.Device, error) {
		cfg := core.DefaultConfig()
		cfg.Features = core.ConfigRaw
		cfg.HEVMs = 1
		cfg.Lanes = lanes
		return env.newDevice(cfg, nil)
	}
	for _, lanes := range laneCounts {
		dev, err := mkDevice(lanes)
		if err != nil {
			return t, fmt.Errorf("bench: parallel device (%d lanes): %w", lanes, err)
		}
		devices[lanes] = dev
	}
	seqDev, err := mkDevice(0)
	if err != nil {
		return t, fmt.Errorf("bench: parallel baseline device: %w", err)
	}

	for _, rate := range rates {
		bundle, err := env.World.MEVBundle(txs, rate)
		if err != nil {
			return t, err
		}
		seq, err := seqDev.Execute(bundle)
		if err != nil {
			return t, fmt.Errorf("bench: parallel baseline (rate %.2f): %w", rate, err)
		}
		for _, lanes := range laneCounts {
			res, err := runParallelBundle(devices[lanes], bundle)
			if err != nil {
				return t, fmt.Errorf("bench: parallel %d lanes rate %.2f: %w", lanes, rate, err)
			}
			p := res.Parallel
			if p == nil {
				// Nothing was speculated (one lane): all-zero scheduler stats.
				p = &core.ParallelStats{}
			}
			t.Rows = append(t.Rows, Row{
				Name:   fmt.Sprintf("%d lanes @ %.2f", lanes, rate),
				Params: []Field{count("lanes", lanes), num("conflict_rate", "ratio", rate)},
				Modeled: []Field{
					ns("virtual_time", res.VirtualTime),
					num("speedup", "x", float64(seq.VirtualTime)/float64(res.VirtualTime)),
					count("conflicts", p.Conflicts), count("reexecs", p.ReExecs),
					ns("reexec_time", p.ReExecTime),
					num("occupancy", "ratio", p.Occupancy),
				},
			})
		}
	}
	return t, nil
}

// runParallelBundle executes one bundle and turns an abort into an
// error, so a scheduler failure surfaces with the aborting transaction
// rather than as a skewed row.
func runParallelBundle(dev *core.Device, bundle *types.Bundle) (*core.BundleResult, error) {
	res, err := dev.Execute(bundle)
	if err != nil {
		return nil, err
	}
	if res.Aborted != nil {
		return nil, fmt.Errorf("aborted: %w", res.Aborted)
	}
	return res, nil
}
