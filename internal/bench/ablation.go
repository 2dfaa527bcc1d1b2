package bench

import (
	"context"
	"fmt"
	"math"
	"slices"

	"hardtape/internal/core"
	"hardtape/internal/drbg"
	"hardtape/internal/evm"
	"hardtape/internal/hevm"
	"hardtape/internal/oram"
	"hardtape/internal/pager"
	"hardtape/internal/simclock"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
	"hardtape/internal/workload"
)

// This file holds the ablations of DESIGN.md §9: each isolates one of
// the paper's design choices and measures what breaks without it.

// --- Ablation 1: swap-size noise (paper §IV-B, attack A5) ---

// noiseAblation compares the adversary-observable L3 swap sizes with
// the random pre-evict/pre-load noise on and off: it executes a heavy
// multi-frame workload twice per noise setting (different RNG seeds,
// same contract) and compares the observed swap-size sequences.
// Without noise the two sequences are identical — the sizes are a
// stable contract fingerprint; with noise they differ.
func noiseAblation() (Table, error) {
	t := Table{
		Name:  "ablation_noise",
		Title: "ABLATION — L3 swap-size noise (attack A5)",
		Note: "identical_runs = 1 when two runs of the same contract show the same swap-size sequence:\n" +
			"fingerprintable with noise off, unlinkable with it on",
	}
	run := func(noiseMax int, seed int64) ([]int, error) {
		cfg := hevm.DefaultConfig()
		cfg.L2Bytes = 64 * 1024
		cfg.FrameLimitBytes = 32 * 1024
		cfg.NoiseMaxPages = noiseMax
		clock := simclock.NewClock()
		noise, err := drbg.New(seed, hevm.NoiseLabel, 0)
		if err != nil {
			return nil, err
		}
		m, err := hevm.New(cfg, clock, simclock.DefaultCalibration(), make([]byte, 32), noise)
		if err != nil {
			return nil, err
		}
		// Deterministic 3-frame workload exceeding L2.
		h := m.Hooks()
		for d := 0; d < 3; d++ {
			h.OnCallEnter(evm.CallFrameInfo{Depth: d, CodeSize: 1000})
			h.OnMemAccess(evm.MemAccess{Size: 24 * 1024, Write: true})
		}
		h.OnCallExit(evm.CallResultInfo{Depth: 2})
		h.OnCallExit(evm.CallResultInfo{Depth: 1})
		events := m.SwapTrace()
		sizes := make([]int, len(events))
		for i, ev := range events {
			sizes[i] = ev.Pages
		}
		return sizes, nil
	}
	for _, c := range []struct {
		name     string
		noiseMax int
	}{{"noise-off", 0}, {"noise-on", 8}} {
		a, err := run(c.noiseMax, 1)
		if err != nil {
			return t, err
		}
		b, err := run(c.noiseMax, 2)
		if err != nil {
			return t, err
		}
		identical := 0
		if slices.Equal(a, b) {
			identical = 1
		}
		t.Rows = append(t.Rows, Row{Name: c.name, Modeled: []Field{
			count("identical_runs", identical), count("swap_events", len(a)),
		}})
	}
	return t, nil
}

// --- Ablation 2: pagewise code prefetching (paper §IV-D problem 3) ---

// prefetchAblation compares the *position* of code-page queries in the
// adversary-observable query sequence with and without the randomized
// prefetch timer, executing the same multi-page-code workload on a
// -full device both ways. With a burst fetch, an execution frame shows
// as a contiguous run of code queries — the pattern §IV-D problem 3
// says "can possibly be used to identify the running contract". With
// prefetching, code queries are interleaved among K-V queries.
func prefetchAblation(env *Env) (Table, error) {
	t := Table{
		Name:  "ablation_prefetch",
		Title: "ABLATION — pagewise code prefetching (§IV-D problem 3)",
		Note: "max_code_run is the longest contiguous run of code-page queries: prefetching spreads code\n" +
			"between K-V queries; without it frame boundaries are visible as bursts",
	}
	run := func(disable bool) ([]byte, error) {
		cfg := core.DefaultConfig()
		cfg.Features = core.ConfigFull
		cfg.HEVMs = 1
		cfg.DisablePrefetch = disable
		dev, err := env.newDevice(cfg, nil)
		if err != nil {
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
	for _, c := range []struct {
		name    string
		disable bool
	}{{"prefetch-on", false}, {"prefetch-off", true}} {
		kinds, err := run(c.disable)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, Row{Name: c.name, Modeled: []Field{
			count("queries", len(kinds)), count("max_code_run", maxCodeRun(kinds)),
		}})
	}
	return t, nil
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

// --- Ablation 3: record grouping (paper §IV-D problems 1–2) ---

// groupingAblation measures the ORAM cost of reading 32 consecutive
// storage records (a Solidity array scan) through ORAM-backed stores
// with group sizes 1, 8 and 32.
func groupingAblation() (Table, error) {
	t := Table{
		Name:  "ablation_grouping",
		Title: "ABLATION — storage record grouping (§IV-D problems 1-2): scan of 32 consecutive records (Solidity array layout)",
		Note:  "paper's choice (32/page) turns an array scan into a single page fetch",
	}
	for _, gs := range []int{1, 8, 32} {
		srv, err := oram.NewMemServer(4096)
		if err != nil {
			return t, err
		}
		cli, err := oram.NewClient([]oram.Server{srv}, make([]byte, oram.KeySize), oram.WithSeed(modelSeed))
		if err != nil {
			return t, err
		}
		store, err := pager.NewStoreGrouped(pager.NewORAMBackend(cli), gs)
		if err != nil {
			return t, err
		}
		// The array fills one SSTORE at a time: a record after its
		// group's first re-reads the group page, then the page is
		// rewritten whole with the group's records so far. The scan's
		// bytes depend on which tree paths the fill touched, so the fill
		// is the one the table was measured with.
		addr := types.MustAddress("0x00000000000000000000000000000000000000aa")
		meta := &pager.AccountMeta{Balance: new(uint256.Int)}
		var recs []pager.StorageRecord
		for i := byte(0); i < 32; i++ {
			key := types.Hash{31: i}
			if int(i)%gs == 0 {
				recs = recs[:0]
			} else if _, _, err := store.ReadStorageRecord(context.Background(), addr, key); err != nil {
				return t, err
			}
			recs = append(recs, pager.StorageRecord{Key: key, Value: types.Hash{31: i + 1}})
			keys, pages := store.AccountPages(addr, meta, recs)
			if err := store.WritePages(keys[1:], pages[1:]); err != nil { // the group page, not the meta page
				return t, err
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
			if _, _, err := store.ReadStorageRecord(context.Background(), addr, key); err != nil {
				return t, err
			}
			lastGroup, haveGroup = group, true
		}
		after := cli.Stats()
		t.Rows = append(t.Rows, Row{
			Name:   fmt.Sprintf("%d/page", gs),
			Params: []Field{count("records_per_page", gs)},
			Modeled: []Field{
				count("oram_queries", after.Accesses-before.Accesses),
				num("bytes_moved", "B", after.BytesMoved-before.BytesMoved),
			},
		})
	}
	return t, nil
}

// --- Ablation 4: ORAM capacity scaling (O(log n) bandwidth) ---

// depthAblation sweeps the ORAM capacity and measures the real
// bytes-moved-per-access, which should grow with log(n).
func depthAblation() (Table, error) {
	t := Table{
		Name:  "ablation_depth",
		Title: "ABLATION — ORAM bandwidth vs capacity (O(log n) overhead)",
		Note:  "bytes_per_access grows ∝ depth = O(log n), the Path ORAM bound the paper cites",
	}
	for _, capacity := range []uint64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		srv, err := oram.NewMemServer(capacity)
		if err != nil {
			return t, err
		}
		cli, err := oram.NewClient([]oram.Server{srv}, make([]byte, oram.KeySize), oram.WithSeed(modelSeed))
		if err != nil {
			return t, err
		}
		payload := make([]byte, oram.BlockSize)
		const accesses = 64
		for i := 0; i < accesses; i++ {
			op := oram.BatchOp{Op: oram.OpWrite, ID: oram.BlockID(i), Data: payload}
			if _, err := cli.AccessBatch(context.Background(), []oram.BatchOp{op}); err != nil {
				return t, err
			}
		}
		st := cli.Stats()
		perAccess := st.BytesMoved / st.Accesses
		t.Rows = append(t.Rows, Row{
			Name:   fmt.Sprintf("%d blocks", capacity),
			Params: []Field{count("capacity", capacity)},
			Modeled: []Field{
				count("depth", st.Depth),
				num("bytes_per_access", "B", perAccess),
				num("bytes_per_log2_capacity", "B", float64(perAccess)/math.Log2(float64(capacity))),
			},
		})
	}
	return t, nil
}
