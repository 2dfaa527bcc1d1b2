package core

import (
	"errors"
	"sync"
	"testing"

	"hardtape/internal/baseline"
	"hardtape/internal/hevm"
	"hardtape/internal/node"
	"hardtape/internal/oram"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
	"hardtape/internal/workload"
)

// rig is a fully wired test environment.
type rig struct {
	world  *workload.World
	chain  *node.Node
	device *Device
}

func buildRig(t testing.TB, features Features) *rig {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 12
	wcfg.Tokens = 2
	wcfg.DEXes = 1
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Features = features
	cfg.HEVMs = 2
	dev, err := NewDevice(cfg, nil, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	return &rig{world: w, chain: chain, device: dev}
}

// transferBundle builds a single ERC-20 transfer bundle. Bundles are
// temporary (nothing persists), so each bundle uses a distinct sender
// to keep the canonical nonce (0) valid.
func (r *rig) transferBundle(t testing.TB, amount uint64) *types.Bundle {
	t.Helper()
	return r.transferBundleFrom(t, int(amount)%len(r.world.EOAs), amount)
}

func (r *rig) transferBundleFrom(t testing.TB, sender int, amount uint64) *types.Bundle {
	t.Helper()
	token := r.world.Tokens[0]
	from := r.world.EOAs[sender%len(r.world.EOAs)]
	tx, err := r.world.SignedTxAt(from, 0, &token, 0,
		workload.CalldataTransfer(r.world.EOAs[1], amount), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	return &types.Bundle{StateBlock: 0, Txs: []*types.Transaction{tx}}
}

func TestExecuteTransferFull(t *testing.T) {
	r := buildRig(t, ConfigFull)
	res, err := r.device.Execute(r.transferBundle(t, 250))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil {
		t.Fatalf("aborted: %v", res.Aborted)
	}
	if len(res.Trace.Txs) != 1 {
		t.Fatalf("trace txs = %d", len(res.Trace.Txs))
	}
	tx := res.Trace.Txs[0]
	if tx.Reverted || tx.Failed {
		t.Fatalf("transfer failed: %+v", tx)
	}
	if got := new(uint256.Int).SetBytes(tx.ReturnData); !got.Eq(uint256.NewInt(1)) {
		t.Fatalf("return = %s", got)
	}
	if res.VirtualTime <= 0 {
		t.Fatal("no virtual time charged")
	}
	if res.ORAMQueries == 0 {
		t.Fatal("-full must query the ORAM")
	}
	if res.HEVMStats.Steps == 0 {
		t.Fatal("machine saw no steps")
	}
}

func TestTraceMatchesGroundTruth(t *testing.T) {
	// §VI-B: HarDTAPE's trace must equal the reference executor's.
	r := buildRig(t, ConfigFull)
	bundle := r.transferBundle(t, 123)

	res, err := r.device.Execute(bundle)
	if err != nil {
		t.Fatal(err)
	}
	// Reference run with the same (already signed) txs; fresh world
	// with identical state.
	g := baseline.NewGeth(r.chain.State(), workload.NewBlockContext(&r.chain.Head().Header))
	ref, err := g.ExecuteBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bundle.Txs {
		diffs := tracer.Diff(res.Trace.Txs[i], ref.Trace.Txs[i])
		if len(diffs) != 0 {
			t.Fatalf("tx %d diverges from ground truth: %v", i, diffs)
		}
	}
}

func TestAllConfigsAgreeOnBehaviour(t *testing.T) {
	configs := []Features{ConfigRaw, ConfigE, ConfigES, ConfigESO, ConfigFull}
	var refGas uint64
	for i, feat := range configs {
		r := buildRig(t, feat)
		res, err := r.device.Execute(r.transferBundle(t, 42))
		if err != nil {
			t.Fatalf("%s: %v", feat.Name(), err)
		}
		if res.Aborted != nil {
			t.Fatalf("%s aborted: %v", feat.Name(), res.Aborted)
		}
		if i == 0 {
			refGas = res.GasUsed
		} else if res.GasUsed != refGas {
			t.Fatalf("%s gas %d != raw gas %d", feat.Name(), res.GasUsed, refGas)
		}
	}
}

func TestFeatureCostOrdering(t *testing.T) {
	// Fig. 4's shape: -raw < -E < -ES < -ESO ≤ -full in end-to-end time
	// (signature and ORAM dominate).
	times := map[string]int64{}
	for _, feat := range []Features{ConfigRaw, ConfigE, ConfigES, ConfigESO, ConfigFull} {
		r := buildRig(t, feat)
		// Use a DEX swap: it touches code + storage of two contracts.
		dex := r.world.DEXes[0]
		tx, err := r.world.SignedTxAt(r.world.EOAs[0], 0, &dex, 0, workload.CalldataSwap(1000), 400_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.device.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
		if err != nil {
			t.Fatal(err)
		}
		times[feat.Name()] = int64(res.VirtualTime)
	}
	if !(times["-raw"] < times["-E"] && times["-E"] < times["-ES"] &&
		times["-ES"] < times["-ESO"] && times["-ESO"] <= times["-full"]) {
		t.Fatalf("cost ordering broken: %v", times)
	}
	// Signature should dominate encryption (paper: 80 ms vs 2.9 ms).
	if times["-ES"]-times["-E"] < 10*(times["-E"]-times["-raw"]) {
		t.Fatalf("ECDSA step should dominate encryption: %v", times)
	}
}

func TestMemoryOverflowAbortsBundle(t *testing.T) {
	r := buildRig(t, ConfigRaw)
	hog := r.world.MemoryHog
	tx, err := r.world.SignedTxAt(r.world.EOAs[0], 0, &hog, 0,
		workload.CalldataUint(600_000), 25_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.device.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	var moe *hevm.MemoryOverflowError
	if !errors.As(res.Aborted, &moe) {
		t.Fatalf("expected Memory Overflow Error, got %v", res.Aborted)
	}
	// The device stays usable: a normal bundle still runs (A2 — other
	// sessions unaffected).
	res2, err := r.device.Execute(r.transferBundle(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Aborted != nil || res2.Trace.Txs[0].Failed {
		t.Fatalf("device poisoned after overflow: %+v", res2)
	}
}

func TestBundleStateIsTemporary(t *testing.T) {
	// Step 10: world-state modifications are never persisted.
	r := buildRig(t, ConfigFull)
	if _, err := r.device.Execute(r.transferBundle(t, 999)); err != nil {
		t.Fatal(err)
	}
	// A second bundle reading the balance must see the ORIGINAL value.
	token := r.world.Tokens[0]
	tx, err := r.world.SignedTxAt(r.world.EOAs[2], 0, &token, 0,
		workload.CalldataBalanceOf(r.world.EOAs[1]), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.device.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	got := new(uint256.Int).SetBytes(res.Trace.Txs[0].ReturnData)
	if !got.Eq(uint256.NewInt(1 << 40)) {
		t.Fatalf("bundle write leaked into persistent state: balance = %s", got)
	}
}

func TestSlotIsolationAndReset(t *testing.T) {
	r := buildRig(t, ConfigFull)
	res1, err := r.device.Execute(r.transferBundle(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.device.Execute(r.transferBundle(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Counters must not accumulate across bundles (cleared state).
	if res2.ORAMQueries > 2*res1.ORAMQueries+16 {
		t.Fatalf("slot state leaked across bundles: %d then %d queries",
			res1.ORAMQueries, res2.ORAMQueries)
	}
	if res2.HEVMStats.Steps == 0 || res2.HEVMStats.Steps > 2*res1.HEVMStats.Steps {
		t.Fatalf("machine steps leaked: %d then %d", res1.HEVMStats.Steps, res2.HEVMStats.Steps)
	}
}

func TestConcurrentBundlesQueueForSlots(t *testing.T) {
	r := buildRig(t, ConfigRaw) // no shared ORAM → true slot parallelism
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]*BundleResult, n)
	bundles := make([]*types.Bundle, n)
	for i := 0; i < n; i++ {
		bundles[i] = r.transferBundle(t, uint64(i+1))
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.device.Execute(bundles[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("bundle %d: %v", i, errs[i])
		}
		if results[i].Aborted != nil || len(results[i].Trace.Txs) != 1 {
			t.Fatalf("bundle %d bad result", i)
		}
	}
}

// TestSyncExcludesRunningBundles: Device.Sync replaces the page stores
// every bundle reads (the plain store and, with ORAM, the pager's page
// dictionary) and writes the ORAM, so no bundle may run beside it. Two
// goroutines execute transfer bundles in a loop while the test syncs
// three times; under -race a sync that admits bundles reports the race
// on the device's stores.
func TestSyncExcludesRunningBundles(t *testing.T) {
	for _, feat := range []Features{ConfigE, ConfigFull} {
		t.Run(feat.Name(), func(t *testing.T) {
			r := buildRig(t, feat)
			bundles := []*types.Bundle{r.transferBundle(t, 1), r.transferBundle(t, 2)}
			ran := make(chan struct{}, 1)
			stop := make(chan struct{})
			errs := make(chan error, len(bundles))
			for _, b := range bundles {
				go func(b *types.Bundle) {
					for {
						select {
						case <-stop:
							errs <- nil
							return
						default:
						}
						res, err := r.device.Execute(b)
						if err == nil && res.Aborted != nil {
							err = res.Aborted
						}
						if err != nil {
							errs <- err
							return
						}
						select {
						case ran <- struct{}{}:
						default:
						}
					}
				}(b)
			}
			live := len(bundles)
			defer func() {
				close(stop)
				for ; live > 0; live-- {
					if err := <-errs; err != nil {
						t.Error(err)
					}
				}
			}()
			for i := 0; i < 3; i++ {
				// Sync only while bundles are running.
				select {
				case <-ran:
				case err := <-errs:
					live--
					t.Fatal(err)
				}
				if err := r.device.Sync(); err != nil {
					t.Fatalf("sync %d: %v", i, err)
				}
			}
		})
	}
}

func TestORAMObserverSeesUniformishTraffic(t *testing.T) {
	r := buildRig(t, ConfigFull)
	var leaves []uint64
	r.device.ORAMServer().SetObserver(func(ev oram.AccessEvent) {
		if !ev.Write {
			leaves = append(leaves, ev.Leaf)
		}
	})
	for i := 0; i < 5; i++ {
		if _, err := r.device.Execute(r.transferBundle(t, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if len(leaves) == 0 {
		t.Fatal("no ORAM traffic observed")
	}
	// At minimum, the observed leaves must not be constant.
	first := leaves[0]
	varied := false
	for _, l := range leaves[1:] {
		if l != first {
			varied = true
			break
		}
	}
	if !varied && len(leaves) > 4 {
		t.Fatal("ORAM leaf sequence constant — pattern leaks")
	}
}

func TestPrefetcherRunsInFullConfig(t *testing.T) {
	r := buildRig(t, ConfigFull)
	// A DEX swap touches a contract with multi-page code (tokens are
	// padded per Table I's code-size distribution) and issues multiple
	// storage queries to drive the interval timer.
	dex := r.world.DEXes[0]
	tx, err := r.world.SignedTxAt(r.world.EOAs[0], 0, &dex, 0, workload.CalldataSwap(500), 400_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.device.Execute(&types.Bundle{Txs: []*types.Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil {
		t.Fatal(res.Aborted)
	}
	// Code of both contracts flowed through the ORAM: queries must
	// exceed the storage accesses alone.
	if res.ORAMQueries < 4 {
		t.Fatalf("too few ORAM queries for a cross-contract call: %d", res.ORAMQueries)
	}
}

func TestEmptyAndUnbooted(t *testing.T) {
	r := buildRig(t, ConfigRaw)
	if _, err := r.device.Execute(&types.Bundle{}); !errors.Is(err, ErrBundleEmpty) {
		t.Fatalf("empty bundle: %v", err)
	}
}

func TestDeviceRequiresHEVMs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HEVMs = 0
	if _, err := NewDevice(cfg, nil, nil); err == nil {
		t.Fatal("0-HEVM device accepted")
	}
}

// TestDeviceAdmitsOnlyPaperRungs: of the 16 Features values, the five
// Fig. 4 configurations build a device and the other 11 are refused
// with a *FeaturesError naming the value.
func TestDeviceAdmitsOnlyPaperRungs(t *testing.T) {
	admitted := 0
	for bits := 0; bits < 16; bits++ {
		f := Features{Encrypt: bits&1 != 0, Sign: bits&2 != 0, ORAMStorage: bits&4 != 0, ORAMCode: bits&8 != 0}
		cfg := DefaultConfig()
		cfg.Features = f
		cfg.HEVMs = 1
		cfg.ORAMCapacity = 1 << 8
		_, err := NewDevice(cfg, nil, nil)
		var fe *FeaturesError
		switch {
		case f.Name() != "":
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			admitted++
		case !errors.As(err, &fe) || fe.Features != f:
			t.Fatalf("%+v: got %v, want a *FeaturesError", f, err)
		}
	}
	if admitted != 5 {
		t.Fatalf("%d Features values admitted, want the paper's 5", admitted)
	}
}
