package bench

// Sweep is one named experiment of the registry.
type Sweep struct {
	Name, Doc string
	// NoEnv marks a sweep that needs no provisioned environment; its Run
	// is handed a nil Env.
	NoEnv bool
	// Run produces the sweep's tables over n transactions.
	Run func(env *Env, n int) ([]Table, error)
}

// RunFresh runs the sweep against an environment built for it alone, so
// its modeled output depends on (cfg.Seed, n) and not on which sweeps
// ran before it: every sweep advances the shared workload generator and
// device state it touches.
func (s Sweep) RunFresh(cfg EnvConfig, n int) ([]Table, error) {
	if s.NoEnv {
		return s.Run(nil, n)
	}
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(env, n)
}

// Find looks a sweep up by name.
func Find(name string) (Sweep, bool) {
	for _, s := range Sweeps {
		if s.Name == name {
			return s, true
		}
	}
	return Sweep{}, false
}

// Sweeps is the registry, in the paper's section order followed by the
// sweeps later subsystems added.
var Sweeps = []Sweep{
	{Name: "table1", Doc: "Table I: workload distributions", Run: table1},
	{Name: "resources", Doc: "§VI-A: resource utility audit", NoEnv: true,
		Run: func(*Env, int) ([]Table, error) { return []Table{resources()}, nil }},
	{Name: "correctness", Doc: "§VI-B: trace vs ground truth; fails on any mismatch",
		Run: func(env *Env, n int) ([]Table, error) { return tables(correctness(env, n)) }},
	{Name: "fig4", Doc: "Fig. 4: end-to-end per-tx time by configuration",
		Run: func(env *Env, n int) ([]Table, error) { return tables(fig4(env, n)) }},
	{Name: "fig5", Doc: "Fig. 5: per-operation time, warm local data",
		Run: func(env *Env, _ int) ([]Table, error) { return tables(fig5(env)) }},
	{Name: "amortization", Doc: "§VI-C: -full per-tx time vs bundle size",
		Run: func(env *Env, _ int) ([]Table, error) { return tables(amortization(env)) }},
	{Name: "scalability", Doc: "§VI-D: throughput and ORAM-server capacity",
		Run: func(env *Env, n int) ([]Table, error) { return tables(scalability(env, n/4+1)) }},
	{Name: "ablations", Doc: "design-choice ablations (noise, prefetch, grouping, ORAM depth)", Run: ablations},
	{Name: "sessions", Doc: "cold dial vs ticket resume: device cost and asymmetric ops per handshake",
		Run: func(env *Env, n int) ([]Table, error) { return tables(sessions(env, n)) }},
	{Name: "parallel", Doc: "intra-bundle parallel pre-execution: lanes × conflict-rate sweep",
		Run: func(env *Env, _ int) ([]Table, error) { return tables(parallelSweep(env)) }},
	{Name: "oram", Doc: "sharded ORAM fan-out: shards × batch-size sweep", NoEnv: true,
		Run: func(*Env, int) ([]Table, error) { return tables(oramShardSweep()) }},
}

// tables adapts a single-table sweep to Sweep.Run's result.
func tables(t Table, err error) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// ablations runs the four design-choice ablations of DESIGN.md §9.
func ablations(env *Env, _ int) ([]Table, error) {
	var out []Table
	for _, run := range []func() (Table, error){
		noiseAblation,
		func() (Table, error) { return prefetchAblation(env) },
		groupingAblation,
		depthAblation,
	} {
		t, err := run()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
