package bench

import (
	"fmt"
	"math"
	"strings"

	"hardtape/internal/core"
	"hardtape/internal/evm"
	"hardtape/internal/hevm"
	"hardtape/internal/oram"
	"hardtape/internal/pager"
	"hardtape/internal/simclock"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// This file holds the ablations of DESIGN.md §5: each isolates one of
// the paper's design choices and measures what breaks without it.

// --- Ablation 1: swap-size noise (paper §IV-B, attack A5) ---

// NoiseAblation compares the adversary-observable L3 swap sizes with
// the random pre-evict/pre-load noise on and off.
type NoiseAblation struct {
	// WithoutNoise: swap sequences for two runs of the same contract
	// are identical — the sizes are a stable contract fingerprint.
	IdenticalWithoutNoise bool
	// WithNoise: the same two runs differ — sizes are noise-bound.
	IdenticalWithNoise bool
	SwapEventsObserved int
}

// RunNoiseAblation executes a heavy multi-frame workload twice per
// noise setting (different RNG seeds, same contract) and compares the
// observed swap-size sequences.
func RunNoiseAblation() (*NoiseAblation, error) {
	run := func(noiseMax int, seed int64) ([]hevm.SwapEvent, error) {
		cfg := hevm.DefaultConfig()
		cfg.L2Bytes = 64 * 1024
		cfg.FrameLimitBytes = 32 * 1024
		cfg.NoiseMaxPages = noiseMax
		clock := simclock.NewClock()
		m, err := hevm.New(cfg, clock, simclock.DefaultCalibration(), make([]byte, 32), seed)
		if err != nil {
			return nil, err
		}
		// Deterministic 3-frame workload exceeding L2.
		h := m.Hooks()
		for d := 0; d < 3; d++ {
			h.OnCallEnter(frameInfo(d, 1000))
			h.OnMemAccess(memInfo(24 * 1024))
		}
		h.OnCallExit(exitInfo(2))
		h.OnCallExit(exitInfo(1))
		return m.SwapTrace(), nil
	}
	sizes := func(events []hevm.SwapEvent) []int {
		out := make([]int, len(events))
		for i, ev := range events {
			out[i] = ev.Pages
		}
		return out
	}
	equal := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	off1, err := run(0, 1)
	if err != nil {
		return nil, err
	}
	off2, err := run(0, 2)
	if err != nil {
		return nil, err
	}
	on1, err := run(8, 1)
	if err != nil {
		return nil, err
	}
	on2, err := run(8, 2)
	if err != nil {
		return nil, err
	}
	return &NoiseAblation{
		IdenticalWithoutNoise: equal(sizes(off1), sizes(off2)),
		IdenticalWithNoise:    equal(sizes(on1), sizes(on2)),
		SwapEventsObserved:    len(on1),
	}, nil
}

// Render produces the report text.
func (a *NoiseAblation) Render() string {
	var sb strings.Builder
	sb.WriteString("ABLATION — L3 swap-size noise (attack A5)\n\n")
	fmt.Fprintf(&sb, "noise OFF: identical runs give identical swap sizes: %v (fingerprintable)\n",
		a.IdenticalWithoutNoise)
	fmt.Fprintf(&sb, "noise ON:  identical runs give identical swap sizes: %v (unlinkable)\n",
		a.IdenticalWithNoise)
	fmt.Fprintf(&sb, "swap events observed: %d\n", a.SwapEventsObserved)
	return sb.String()
}

// --- Ablation 2: pagewise code prefetching (paper §IV-D problem 3) ---

// PrefetchAblation compares the *position* of code-page queries in the
// adversary-observable query sequence with and without the randomized
// prefetch timer. With a burst fetch, an execution frame shows as a
// contiguous run of code queries — the pattern §IV-D problem 3 says
// "can possibly be used to identify the running contract". With
// prefetching, code queries are interleaved among K-V queries.
type PrefetchAblation struct {
	// MaxCodeRun is the longest contiguous run of code-page queries.
	MaxCodeRunWith    int
	MaxCodeRunWithout int
	QueriesWith       int
	QueriesWithout    int
}

// RunPrefetchAblation executes the same multi-page-code workload on a
// -full device with prefetching on and off.
func RunPrefetchAblation(env *Env) (*PrefetchAblation, error) {
	run := func(disable bool) ([]byte, error) {
		cfg := core.DefaultConfig()
		cfg.Features = core.ConfigFull
		cfg.HEVMs = 1
		cfg.DisablePrefetch = disable
		dev, err := core.NewDevice(cfg, nil, env.Chain)
		if err != nil {
			return nil, err
		}
		if err := dev.Sync(); err != nil {
			return nil, err
		}
		// A swap touches two contracts with Table-I-sized (multi-page)
		// code plus several storage queries. Stratified deployment puts
		// the largest code on the last pool — the interesting case for
		// burst visibility.
		dex := env.World.DEXes[len(env.World.DEXes)-1]
		tx, err := env.World.SignedTxAt(env.World.EOAs[0], 0, &dex, 0,
			workload.CalldataSwap(1000), 400_000)
		if err != nil {
			return nil, err
		}
		res, err := dev.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
		if err != nil {
			return nil, err
		}
		return res.QueryKinds, nil
	}
	with, err := run(false)
	if err != nil {
		return nil, err
	}
	without, err := run(true)
	if err != nil {
		return nil, err
	}
	return &PrefetchAblation{
		MaxCodeRunWith:    maxCodeRun(with),
		MaxCodeRunWithout: maxCodeRun(without),
		QueriesWith:       len(with),
		QueriesWithout:    len(without),
	}, nil
}

// maxCodeRun finds the longest contiguous run of code-page queries in
// a query-kind sequence.
func maxCodeRun(kinds []byte) int {
	best, cur := 0, 0
	for _, k := range kinds {
		if k == 'c' {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
}

// Render produces the report text.
func (a *PrefetchAblation) Render() string {
	var sb strings.Builder
	sb.WriteString("ABLATION — pagewise code prefetching (§IV-D problem 3)\n\n")
	fmt.Fprintf(&sb, "prefetch ON:  %d queries, longest code-query run %d (code spread between K-V queries)\n",
		a.QueriesWith, a.MaxCodeRunWith)
	fmt.Fprintf(&sb, "prefetch OFF: %d queries, longest code-query run %d (frame boundaries visible as bursts)\n",
		a.QueriesWithout, a.MaxCodeRunWithout)
	return sb.String()
}

// --- Ablation 3: record grouping (paper §IV-D problems 1–2) ---

// GroupingAblation measures the ORAM cost of reading 32 consecutive
// storage records (a Solidity array scan) under different group sizes.
type GroupingAblation struct {
	Rows []GroupingRow
}

// GroupingRow is one group-size configuration.
type GroupingRow struct {
	GroupSize   int
	ORAMQueries uint64
	BytesMoved  uint64
}

// RunGroupingAblation scans 32 consecutive keys through ORAM-backed
// stores with group sizes 1, 8 and 32.
func RunGroupingAblation() (*GroupingAblation, error) {
	out := &GroupingAblation{}
	for _, gs := range []int{1, 8, 32} {
		srv, err := oram.NewMemServer(4096)
		if err != nil {
			return nil, err
		}
		cli, err := oram.NewClient([]oram.Server{srv}, make([]byte, oram.KeySize))
		if err != nil {
			return nil, err
		}
		store, err := pager.NewStoreGrouped(pager.NewORAMBackend(cli), gs)
		if err != nil {
			return nil, err
		}
		addr := types.MustAddress("0x00000000000000000000000000000000000000aa")
		for i := byte(0); i < 32; i++ {
			if err := store.WriteStorageRecord(addr, types.Hash{31: i}, types.Hash{31: i + 1}); err != nil {
				return nil, err
			}
		}
		// The scan models the Hypervisor's L1 world-state cache: a page
		// already fetched for an earlier key in the same group serves
		// later keys without another ORAM access.
		before := cli.Stats()
		var lastGroup types.Hash
		haveGroup := false
		for i := byte(0); i < 32; i++ {
			key := types.Hash{31: i}
			group := store.GroupKey(key)
			if haveGroup && group == lastGroup {
				continue
			}
			if _, _, err := store.ReadStorageRecord(addr, key); err != nil {
				return nil, err
			}
			lastGroup, haveGroup = group, true
		}
		after := cli.Stats()
		out.Rows = append(out.Rows, GroupingRow{
			GroupSize:   gs,
			ORAMQueries: after.Accesses - before.Accesses,
			BytesMoved:  after.BytesMoved - before.BytesMoved,
		})
	}
	return out, nil
}

// Render produces the report text.
func (a *GroupingAblation) Render() string {
	var sb strings.Builder
	sb.WriteString("ABLATION — storage record grouping (§IV-D problems 1-2)\n")
	sb.WriteString("scan of 32 consecutive records (Solidity array layout):\n\n")
	fmt.Fprintf(&sb, "%-12s %14s %14s\n", "records/page", "ORAM queries", "bytes moved")
	for _, r := range a.Rows {
		fmt.Fprintf(&sb, "%-12d %14d %14d\n", r.GroupSize, r.ORAMQueries, r.BytesMoved)
	}
	sb.WriteString("\npaper's choice (32/page) turns an array scan into a single page fetch\n")
	return sb.String()
}

// --- Ablation 4: ORAM capacity scaling (O(log n) bandwidth) ---

// DepthAblation measures per-access bandwidth as capacity grows.
type DepthAblation struct {
	Rows []DepthRow
}

// DepthRow is one capacity point.
type DepthRow struct {
	Capacity       uint64
	Depth          int
	BytesPerAccess uint64
}

// RunDepthAblation sweeps the ORAM capacity and measures the real
// bytes-moved-per-access, which should grow with log(n).
func RunDepthAblation() (*DepthAblation, error) {
	out := &DepthAblation{}
	for _, capacity := range []uint64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		srv, err := oram.NewMemServer(capacity)
		if err != nil {
			return nil, err
		}
		cli, err := oram.NewClient([]oram.Server{srv}, make([]byte, oram.KeySize))
		if err != nil {
			return nil, err
		}
		payload := make([]byte, oram.BlockSize)
		const accesses = 64
		for i := 0; i < accesses; i++ {
			if err := cli.Write(oram.BlockID(i), payload); err != nil {
				return nil, err
			}
		}
		st := cli.Stats()
		out.Rows = append(out.Rows, DepthRow{
			Capacity:       capacity,
			Depth:          st.Depth,
			BytesPerAccess: st.BytesMoved / st.Accesses,
		})
	}
	return out, nil
}

// Render produces the report text.
func (a *DepthAblation) Render() string {
	var sb strings.Builder
	sb.WriteString("ABLATION — ORAM bandwidth vs capacity (O(log n) overhead)\n\n")
	fmt.Fprintf(&sb, "%-12s %8s %16s %18s\n", "capacity", "depth", "bytes/access", "bytes / log2(cap)")
	for _, r := range a.Rows {
		ratio := float64(r.BytesPerAccess) / math.Log2(float64(r.Capacity))
		fmt.Fprintf(&sb, "%-12d %8d %16d %18.0f\n", r.Capacity, r.Depth, r.BytesPerAccess, ratio)
	}
	sb.WriteString("\nbytes/access grows ∝ depth = O(log n), the Path ORAM bound the paper cites\n")
	return sb.String()
}

// frameInfo/memInfo/exitInfo build hook payloads for direct machine
// driving.
func frameInfo(depth, codeSize int) evm.CallFrameInfo {
	return evm.CallFrameInfo{Depth: depth, CodeSize: codeSize}
}

func memInfo(size uint64) evm.MemAccess {
	return evm.MemAccess{Size: size, Write: true}
}

func exitInfo(depth int) evm.CallResultInfo {
	return evm.CallResultInfo{Depth: depth}
}
