package bench

import (
	"fmt"
	"time"

	"hardtape/internal/hevm"
	"hardtape/internal/pager"
	"hardtape/internal/simclock"
)

// scalability reproduces §VI-D from live -full runs: transactions per
// second per chip, and how many full-load HEVMs one ORAM server
// sustains.
func scalability(env *Env, nBundles int) (Table, error) {
	t := Table{
		Name:  "scalability",
		Title: "§VI-D — scalability",
		Note: "chip_throughput = hevms_per_chip / mean_tx_time (paper: ≈18 tx/s; Ethereum needs ≈17);\n" +
			"query_gap is the virtual time between ORAM queries from one busy HEVM (paper: 630 µs);\n" +
			"server_per_query is the calibrated server time (paper: 25 µs);\n" +
			"hevms_per_server = ⌊query_gap / server_per_query⌋ (paper: ⌊630/25⌋ = 25)",
	}
	dev := env.Devices["-full"]
	bundles, err := env.EvalBundles(nBundles)
	if err != nil {
		return t, err
	}
	var (
		total    time.Duration
		executed int
		queries  uint64
	)
	for _, b := range bundles {
		res, err := dev.Execute(b)
		if err != nil {
			return t, err
		}
		if res.Aborted != nil {
			continue
		}
		total += res.VirtualTime
		queries += res.ORAMQueries
		executed++
	}
	if executed == 0 || queries == 0 {
		return t, fmt.Errorf("bench: scalability: no successful bundles")
	}
	meanFull := total / time.Duration(executed)
	queryGap := total / time.Duration(queries)
	serverPerQuery := simclock.DefaultCalibration().ORAMServerPerQuery
	supported := 0
	if serverPerQuery > 0 {
		supported = int(queryGap / serverPerQuery)
	}
	t.Rows = []Row{{
		Name: "-full",
		Modeled: []Field{
			ns("mean_tx_time", meanFull),
			count("hevms_per_chip", dev.SlotCount()),
			num("chip_throughput", "tx/s", float64(dev.SlotCount())/meanFull.Seconds()),
			ns("query_gap", queryGap),
			ns("server_per_query", serverPerQuery),
			count("hevms_per_server", supported),
		},
	}}
	return t, nil
}

// --- §VI-A resources ---

// resources reproduces the §VI-A utilization audit from the default
// hardware config: the paper's synthesis numbers (in the note) next to
// our configured per-HEVM on-chip memory budget and the ORAM client's
// on-chip stash bound at a depth-30 tree.
func resources() Table {
	const oramDepth = 30
	hw := hevm.DefaultConfig()
	l1 := uint64(32*1024) + // full runtime stack
		hevm.CodeCachePages*hevm.PageSize + // code cache
		3*4*1024 + // memory/input caches + world-state cache (4 KB each)
		1024 + // ReturnData cache
		32*32 // frame state registers
	return Table{
		Name:  "resources",
		Title: "§VI-A — resource utility",
		Note: "paper (Vivado synthesis, XCZU15EV): 103388 LUT, 37104 FF, 509 KB BlockRAM per HEVM;\n" +
			"three HEVMs per chip (LUT-bound); Hypervisor 248 KB used of 256 KB on-chip RAM.\n" +
			"hevm_on_chip = per-HEVM L1 partitions + the L2 ring; the ORAM client stash_bound fits the paper's ≈1 MB stash budget",
		Rows: []Row{{Name: "model", Modeled: []Field{
			num("hevm_on_chip", "B", l1+hw.L2Bytes),
			num("l2", "B", hw.L2Bytes),
			num("stash_bound", "B", uint64(16*oramDepth)*pager.PageSize),
		}}},
	}
}
