// Package bench regenerates every table and figure of the paper's
// evaluation (§VI) plus the design ablations and the sweeps later
// subsystems added, as a registry of named sweeps (Sweeps) that all
// produce one report shape (Table). cmd/benchtab and the repo-root
// benchmarks drive the registry.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/baseline"
	"hardtape/internal/core"
	"hardtape/internal/evm"
	"hardtape/internal/node"
	"hardtape/internal/state"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// Env is a fully provisioned experiment environment: one synthetic
// world, its node, and one HarDTAPE device per Fig. 4 configuration.
type Env struct {
	World *workload.World
	Chain *node.Node
	// Devices maps configuration name (-raw, …, -full) to a device.
	Devices map[string]*core.Device
	// Geth is the unprotected baseline.
	Geth *baseline.Geth
}

// EnvConfig scales the environment.
type EnvConfig struct {
	Seed   int64
	EOAs   int
	Tokens int
	DEXes  int
	// HEVMs per device.
	HEVMs int
}

// DefaultEnvConfig returns a laptop-scale environment.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{Seed: 19145194, EOAs: 24, Tokens: 4, DEXes: 2, HEVMs: 3}
}

// NewEnv builds and syncs the environment.
func NewEnv(cfg EnvConfig) (*Env, error) {
	w, err := workload.BuildWorld(workload.Config{
		Seed: cfg.Seed, EOAs: cfg.EOAs, Tokens: cfg.Tokens, DEXes: cfg.DEXes,
	})
	if err != nil {
		return nil, err
	}
	chain, err := node.New(w.State)
	if err != nil {
		return nil, err
	}
	env := &Env{
		World:   w,
		Chain:   chain,
		Devices: make(map[string]*core.Device),
		Geth:    baseline.NewGeth(w.State, workload.NewBlockContext(&chain.Head().Header)),
	}
	for _, feat := range []core.Features{
		core.ConfigRaw, core.ConfigE, core.ConfigES, core.ConfigESO, core.ConfigFull,
	} {
		dcfg := core.DefaultConfig()
		dcfg.Features = feat
		dcfg.HEVMs = cfg.HEVMs
		dev, err := env.newDevice(dcfg, nil)
		if err != nil {
			return nil, err
		}
		env.Devices[feat.Name()] = dev
	}
	return env, nil
}

// modelSeed keys every device and ORAM client a sweep builds, so its
// noise, prefetch cadence and leaves repeat run to run.
const modelSeed = 1

// newDevice builds one more device over the environment's chain and
// syncs it; mfr is nil unless the caller attests against it.
func (e *Env) newDevice(cfg core.Config, mfr *attest.Manufacturer) (*core.Device, error) {
	cfg.Seed = modelSeed
	dev, err := core.NewDevice(cfg, mfr, e.Chain)
	if err != nil {
		return nil, err
	}
	if err := dev.Sync(); err != nil {
		return nil, err
	}
	return dev, nil
}

// EvalBundles generates n single-transaction bundles from the
// evaluation-set mix (the paper runs "each transaction as a separate
// bundle"). Every bundle's sender signs with its canonical nonce.
func (e *Env) EvalBundles(n int) ([]*types.Bundle, error) {
	bundles := make([]*types.Bundle, 0, n)
	// Track per-sender nonces so consecutive bundles from one EOA stay
	// individually valid against the canonical state (nonce 0): use a
	// fresh sender rotation instead.
	for i := 0; i < n; i++ {
		tx, _, err := e.World.GenerateTx()
		if err != nil {
			return nil, err
		}
		// GenerateTx tracks nonces as if the txs executed
		// sequentially; rebuild at the canonical nonce since every
		// bundle runs against the same pinned state.
		sender, err := tx.Sender()
		if err != nil {
			return nil, err
		}
		nonce := uint64(0)
		if acct, ok := e.Chain.State().Account(sender); ok {
			nonce = acct.Nonce
		}
		rebuilt, err := e.World.SignedTxAt(sender, nonce, tx.To, tx.Value.Uint64(), tx.Data, tx.GasLimit)
		if err != nil {
			return nil, err
		}
		bundles = append(bundles, &types.Bundle{Txs: []*types.Transaction{rebuilt}})
	}
	return bundles, nil
}

// --- Table I ---

// table1 executes n evaluation-set transactions on the reference
// executor with the statistics collector attached and reports the
// paper's Table I distributions.
func table1(env *Env, n int) ([]Table, error) {
	sc := workload.NewStatsCollector()
	// The run executes on a fresh overlay over canonical state, so the
	// generator's nonce tracking must restart from canonical too.
	env.World.SyncNonces(env.Chain.State())
	overlay := state.NewOverlay(env.Chain.State())
	e := evm.New(workload.NewBlockContext(&env.Chain.Head().Header), overlay)
	e.Hooks = sc.Hooks()
	for i := 0; i < n; i++ {
		tx, _, err := env.World.GenerateTx()
		if err != nil {
			return nil, err
		}
		sc.BeginTx()
		if _, err := e.ApplyTransaction(tx); err != nil {
			return nil, fmt.Errorf("bench: table1 tx %d: %w", i, err)
		}
		sc.EndTx()
	}

	// One table per band set: a row per band, a column per measured
	// dimension holding the share of its values that land in the band.
	type column struct {
		name   string
		values []uint64
	}
	perFrame := func(name string, pick func(workload.FrameStats) uint64) column {
		c := column{name, make([]uint64, len(sc.Frames))}
		for i, fr := range sc.Frames {
			c.values[i] = pick(fr)
		}
		return c
	}
	dist := func(name, title string, bands []workload.SizeBand, over Field, cols ...column) Table {
		t := Table{Name: name, Title: title}
		shares := make([]map[string]float64, len(cols))
		for i, c := range cols {
			shares[i] = workload.Distribution(c.values, bands)
		}
		for _, b := range bands {
			row := Row{Name: b.Label, Params: []Field{over}}
			for i, c := range cols {
				row.Modeled = append(row.Modeled, num(c.name, "%", shares[i][b.Label]))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	depth := column{"share", make([]uint64, len(sc.Txs))}
	for i, tx := range sc.Txs {
		depth.values[i] = uint64(tx.CallDepth)
	}
	frames, txs := count("frames", len(sc.Frames)), count("txs", len(sc.Txs))
	return []Table{
		dist("table1_sizes", "TABLE I(a) — memory-like size by type, bytes per frame (synthetic evaluation set)",
			workload.SizeBands, frames,
			perFrame("code", func(f workload.FrameStats) uint64 { return f.CodeSize }),
			perFrame("input", func(f workload.FrameStats) uint64 { return f.InputSize }),
			perFrame("memory", func(f workload.FrameStats) uint64 { return f.MemorySize }),
			perFrame("return", func(f workload.FrameStats) uint64 { return f.ReturnSize })),
		dist("table1_keys", "TABLE I(b) — storage records per frame", workload.KeyBands, frames,
			perFrame("share", func(f workload.FrameStats) uint64 { return uint64(f.StorageKeys) })),
		dist("table1_depth", "TABLE I(b) — call depth per transaction", workload.DepthBands, txs, depth),
	}, nil
}

// --- Fig. 4 ---

// fig4 measures end-to-end per-transaction time for Geth and each
// HarDTAPE configuration over n single-tx bundles.
func fig4(env *Env, n int) (Table, error) {
	t := Table{
		Name:  "fig4",
		Title: "FIG. 4 — end-to-end per-transaction time (virtual clock)",
		Note: "paper shape: Geth ≈ -raw ≪ -E ≪ -ES < -ESO < -full;\n" +
			"signature ≈ +80 ms, ORAM ≈ +80 ms (30 ms K-V + 50 ms code); -full ≈ 164 ms",
	}
	bundles, err := env.EvalBundles(n)
	if err != nil {
		return t, err
	}

	// Geth baseline.
	var gethTimes []time.Duration
	for _, b := range bundles {
		res, err := env.Geth.ExecuteBundle(b)
		if err != nil {
			return t, fmt.Errorf("bench: geth: %w", err)
		}
		gethTimes = append(gethTimes, res.VirtualTime)
	}
	t.Rows = append(t.Rows, summarize("Geth", gethTimes))

	for _, name := range []string{"-raw", "-E", "-ES", "-ESO", "-full"} {
		dev := env.Devices[name]
		var times []time.Duration
		for _, b := range bundles {
			res, err := dev.Execute(b)
			if err != nil {
				return t, fmt.Errorf("bench: %s: %w", name, err)
			}
			if res.Aborted != nil {
				// Overflow aborts are excluded, as in the paper.
				continue
			}
			times = append(times, res.VirtualTime)
		}
		t.Rows = append(t.Rows, summarize(name, times))
	}
	return t, nil
}

func summarize(name string, times []time.Duration) Row {
	mean, p50, p95 := durStats(times)
	return Row{Name: name, Modeled: []Field{
		ns("mean", mean), ns("p50", p50), ns("p95", p95), count("n", len(times)),
	}}
}

func durStats(times []time.Duration) (mean, p50, p95 time.Duration) {
	if len(times) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	return total / time.Duration(len(sorted)), sorted[len(sorted)/2], sorted[len(sorted)*95/100]
}

// --- correctness (§VI-B) ---

// correctness pre-executes n evaluation transactions on the -full
// device and diffs every trace against the reference executor. Any
// mismatch fails the sweep.
func correctness(env *Env, n int) (Table, error) {
	t := Table{
		Name:  "correctness",
		Title: "§VI-B — pre-execution correctness vs ground truth",
		Note:  "overflow aborts are roll-up-style frames; the paper leaves these as future work",
	}
	bundles, err := env.EvalBundles(n)
	if err != nil {
		return t, err
	}
	dev := env.Devices["-full"]
	var (
		matched, aborted int
		mismatches       []string
	)
	for i, b := range bundles {
		res, err := dev.Execute(b)
		if err != nil {
			return t, fmt.Errorf("bench: correctness bundle %d: %w", i, err)
		}
		if res.Aborted != nil {
			aborted++
			continue
		}
		ref, err := env.Geth.ExecuteBundle(b)
		if err != nil {
			return t, err
		}
		ok := true
		for j := range b.Txs {
			if diffs := tracer.Diff(res.Trace.Txs[j], ref.Trace.Txs[j]); len(diffs) > 0 {
				ok = false
				mismatches = append(mismatches,
					fmt.Sprintf("bundle %d tx %d: %s", i, j, strings.Join(diffs, "; ")))
			}
		}
		if ok {
			matched++
		}
	}
	if len(mismatches) > 0 {
		return t, fmt.Errorf("bench: correctness: %d trace mismatches over %d bundles:\n  %s",
			len(mismatches), len(bundles), strings.Join(mismatches, "\n  "))
	}
	t.Rows = []Row{{Name: "-full", Params: []Field{count("bundles", len(bundles))}, Modeled: []Field{
		count("identical", matched), count("overflow_aborts", aborted), count("mismatches", len(mismatches)),
	}}}
	return t, nil
}
