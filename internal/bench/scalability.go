package bench

import (
	"fmt"
	"strings"
	"time"

	"hardtape/internal/hevm"
	"hardtape/internal/oram"
	"hardtape/internal/pager"
)

// ScalabilityReport reproduces §VI-D: transactions per second per
// chip, and how many full-load HEVMs one ORAM server sustains.
type ScalabilityReport struct {
	// MeanFullTime is the -full per-transaction time (Fig. 4's bar).
	MeanFullTime time.Duration
	// HEVMsPerChip is the configured core count (paper: 3).
	HEVMsPerChip int
	// ChipThroughput = HEVMsPerChip / MeanFullTime.
	ChipThroughput float64
	// MeanQueryGap is the measured virtual time between ORAM queries
	// from one busy HEVM (paper measures 630 µs).
	MeanQueryGap time.Duration
	// ServerPerQuery is the calibrated server processing time (25 µs).
	ServerPerQuery time.Duration
	// MeasuredServerPerQuery is the wall-clock cost of our software
	// ORAM server per query, reported alongside for transparency.
	MeasuredServerPerQuery time.Duration
	// SupportedHEVMs = floor(MeanQueryGap / ServerPerQuery).
	SupportedHEVMs int
}

// Scalability measures the report quantities from live -full runs.
func Scalability(env *Env, nBundles int) (*ScalabilityReport, error) {
	dev := env.Devices["-full"]
	bundles, err := env.EvalBundles(nBundles)
	if err != nil {
		return nil, err
	}
	var (
		total   time.Duration
		count   int
		queries uint64
	)
	for _, b := range bundles {
		res, err := dev.Execute(b)
		if err != nil {
			return nil, err
		}
		if res.Aborted != nil {
			continue
		}
		total += res.VirtualTime
		queries += res.ORAMQueries
		count++
	}
	if count == 0 || queries == 0 {
		return nil, fmt.Errorf("bench: scalability: no successful bundles")
	}
	rep := &ScalabilityReport{
		MeanFullTime:   total / time.Duration(count),
		HEVMsPerChip:   dev.SlotCount(),
		ServerPerQuery: dev.Config().Calibration.ORAMServerPerQuery,
		MeanQueryGap:   total / time.Duration(queries),
	}
	rep.ChipThroughput = float64(rep.HEVMsPerChip) / rep.MeanFullTime.Seconds()
	if rep.ServerPerQuery > 0 {
		rep.SupportedHEVMs = int(rep.MeanQueryGap / rep.ServerPerQuery)
	}
	rep.MeasuredServerPerQuery = measureServerQuery()
	return rep, nil
}

// measureServerQuery times the software ORAM server's real per-query
// wall-clock cost (ReadPath + WritePath round trip through a client).
func measureServerQuery() time.Duration {
	srv, err := oram.NewMemServer(4096)
	if err != nil {
		return 0
	}
	cli, err := oram.NewClient([]oram.Server{srv}, make([]byte, oram.KeySize))
	if err != nil {
		return 0
	}
	payload := make([]byte, oram.BlockSize)
	for i := 0; i < 64; i++ {
		if err := cli.Write(oram.BlockID(i), payload); err != nil {
			return 0
		}
	}
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := cli.Read(oram.BlockID(i % 64)); err != nil {
			return 0
		}
	}
	return time.Since(start) / n
}

// Render produces the report text.
func (r *ScalabilityReport) Render() string {
	var sb strings.Builder
	sb.WriteString("§VI-D — scalability\n\n")
	fmt.Fprintf(&sb, "-full mean per-tx time:        %v\n", r.MeanFullTime.Round(10*time.Microsecond))
	fmt.Fprintf(&sb, "HEVMs per chip:                %d\n", r.HEVMsPerChip)
	fmt.Fprintf(&sb, "chip throughput:               %.1f tx/s (paper: ≈18; Ethereum needs ≈17)\n", r.ChipThroughput)
	fmt.Fprintf(&sb, "mean gap between ORAM queries: %v (paper: 630 µs)\n", r.MeanQueryGap.Round(time.Microsecond))
	fmt.Fprintf(&sb, "server time per query (model): %v (paper: 25 µs)\n", r.ServerPerQuery)
	fmt.Fprintf(&sb, "server time per query (ours):  %v wall-clock, software server\n", r.MeasuredServerPerQuery.Round(time.Microsecond))
	fmt.Fprintf(&sb, "HEVMs per ORAM server:         %d (paper: ⌊630/25⌋ = 25)\n", r.SupportedHEVMs)
	return sb.String()
}

// --- §VI-A resources ---

// ResourceReport reproduces the §VI-A utilization audit: the paper's
// synthesis numbers quoted next to our configured on-chip budgets.
type ResourceReport struct {
	// Per-HEVM on-chip memory budget (bytes), from the configured
	// hardware geometry.
	PerHEVMOnChip uint64
	L2Bytes       uint64
	// ORAM client on-chip state (stash bound + position map estimate).
	StashBoundBytes uint64
}

// Resources computes the audit from a hardware config.
func Resources(hw hevm.Config, oramDepth int) *ResourceReport {
	l1 := uint64(32*1024) + // full runtime stack
		uint64(hw.CodeCachePages)*hw.PageSize + // code cache
		3*4*1024 + // memory/input caches + world-state cache (4 KB each)
		1024 + // ReturnData cache
		32*32 // frame state registers
	return &ResourceReport{
		PerHEVMOnChip:   l1 + hw.L2Bytes,
		L2Bytes:         hw.L2Bytes,
		StashBoundBytes: uint64(16*oramDepth) * pager.PageSize,
	}
}

// Render produces the report text.
func (r *ResourceReport) Render() string {
	var sb strings.Builder
	sb.WriteString("§VI-A — resource utility\n\n")
	sb.WriteString("paper (Vivado synthesis, XCZU15EV): 103388 LUT, 37104 FF, 509 KB BlockRAM per HEVM;\n")
	sb.WriteString("three HEVMs per chip (LUT-bound); Hypervisor 248 KB used of 256 KB on-chip RAM\n\n")
	fmt.Fprintf(&sb, "our model, per HEVM on-chip memory: %d KB (L1 partitions + %d KB L2 ring)\n",
		r.PerHEVMOnChip/1024, r.L2Bytes/1024)
	fmt.Fprintf(&sb, "ORAM client stash bound:            %d KB (fits the paper's ≈1 MB stash budget)\n",
		r.StashBoundBytes/1024)
	return sb.String()
}
