package workload

import (
	"testing"

	"hardtape/internal/evm"
	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

func buildTestWorld(t testing.TB) *World {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EOAs = 16
	cfg.Tokens = 3
	cfg.DEXes = 2
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// execTx applies one tx against a fresh overlay over the world state.
func execTx(t testing.TB, w *World, tx *types.Transaction, hooks *evm.Hooks) (*evm.ExecutionResult, *state.Overlay) {
	t.Helper()
	o := state.NewOverlay(w.State)
	e := evm.New(evm.BlockContext{Number: 100, GasLimit: 30_000_000, ChainID: uint256.NewInt(1)}, o)
	e.Hooks = hooks
	res, err := e.ApplyTransaction(tx)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return res, o
}

func TestWorldDeterminism(t *testing.T) {
	w1 := buildTestWorld(t)
	w2 := buildTestWorld(t)
	r1, err := w1.State.Root()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w2.State.Root()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("same seed produced different worlds")
	}
	if w1.EOAs[0] != w2.EOAs[0] || w1.Tokens[0] != w2.Tokens[0] {
		t.Fatal("addresses differ across builds")
	}
}

func TestERC20TransferExecutes(t *testing.T) {
	w := buildTestWorld(t)
	from, to := w.EOAs[0], w.EOAs[1]
	token := w.Tokens[0]

	tx, err := w.SignedTx(from, &token, 0, CalldataTransfer(to, 500), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	res, o := execTx(t, w, tx, nil)
	if res.Err != nil {
		t.Fatalf("transfer reverted: %v (ret=%x)", res.Err, res.ReturnData)
	}
	// Check balances via storage (key = address word).
	fromKey := types.BytesToHash(from.Word().Bytes())
	toKey := types.BytesToHash(to.Word().Bytes())
	fromBal := o.GetStorage(token, fromKey).Word().Uint64()
	toBal := o.GetStorage(token, toKey).Word().Uint64()
	if fromBal != (1<<40)-500 {
		t.Fatalf("from balance = %d", fromBal)
	}
	if toBal != (1<<40)+500 {
		t.Fatalf("to balance = %d", toBal)
	}
	if len(res.Logs) != 1 {
		t.Fatalf("transfer should emit 1 log, got %d", len(res.Logs))
	}
}

func TestERC20TransferInsufficientReverts(t *testing.T) {
	w := buildTestWorld(t)
	from := w.EOAs[0]
	token := w.Tokens[0]
	to := w.EOAs[1]
	tx, err := w.SignedTx(from, &token, 0, CalldataTransfer(to, 1<<50), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := execTx(t, w, tx, nil)
	if !res.Reverted() {
		t.Fatal("over-balance transfer should revert")
	}
}

func TestERC20BalanceOf(t *testing.T) {
	w := buildTestWorld(t)
	from := w.EOAs[0]
	token := w.Tokens[0]
	tx, err := w.SignedTx(from, &token, 0, CalldataBalanceOf(from), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := execTx(t, w, tx, nil)
	if res.Err != nil {
		t.Fatalf("balanceOf failed: %v", res.Err)
	}
	if got := new(uint256.Int).SetBytes(res.ReturnData); !got.Eq(uint256.NewInt(1 << 40)) {
		t.Fatalf("balanceOf = %s", got)
	}
}

func TestERC20ApproveAllowance(t *testing.T) {
	w := buildTestWorld(t)
	from, spender := w.EOAs[0], w.EOAs[1]
	token := w.Tokens[0]

	// approve(spender, 777)
	approveData := buildCall(SelApprove, spender.Word().Bytes32(), u64Word(777))
	tx, err := w.SignedTx(from, &token, 0, approveData, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	o := state.NewOverlay(w.State)
	e := evm.New(evm.BlockContext{Number: 100, GasLimit: 30_000_000}, o)
	if res, err := e.ApplyTransaction(tx); err != nil || res.Err != nil {
		t.Fatalf("approve: %v %v", err, res)
	}
	// allowance(from, spender) on the same overlay.
	allowData := buildCall(SelAllowance, from.Word().Bytes32(), spender.Word().Bytes32())
	tx2, err := w.SignedTx(from, &token, 0, allowData, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.ApplyTransaction(tx2)
	if err != nil || res2.Err != nil {
		t.Fatalf("allowance: %v %v", err, res2)
	}
	if got := new(uint256.Int).SetBytes(res2.ReturnData); !got.Eq(uint256.NewInt(777)) {
		t.Fatalf("allowance = %s", got)
	}
}

func TestDEXSwap(t *testing.T) {
	w := buildTestWorld(t)
	from := w.EOAs[0]
	dex := w.DEXes[0]
	tx, err := w.SignedTx(from, &dex, 0, CalldataSwap(1000), 400_000)
	if err != nil {
		t.Fatal(err)
	}
	res, o := execTx(t, w, tx, nil)
	if res.Err != nil {
		t.Fatalf("swap failed: %v", res.Err)
	}
	out := new(uint256.Int).SetBytes(res.ReturnData)
	if out.IsZero() {
		t.Fatal("swap output is zero")
	}
	// Constant product: out = rOut*in/(rIn+in) with both reserves 2^30.
	want := uint64((1 << 30)) * 1000 / ((1 << 30) + 1000)
	if out.Uint64() != want {
		t.Fatalf("swap out = %d, want %d", out.Uint64(), want)
	}
	// Reserves updated.
	rIn := o.GetStorage(dex, types.Hash{31: 0}).Word().Uint64()
	rOut := o.GetStorage(dex, types.Hash{31: 1}).Word().Uint64()
	if rIn != (1<<30)+1000 || rOut != (1<<30)-want {
		t.Fatalf("reserves: %d %d", rIn, rOut)
	}
	// The swap must have produced a nested token transfer to caller.
	token := w.Tokens[0]
	callerKey := types.BytesToHash(from.Word().Bytes())
	got := o.GetStorage(token, callerKey).Word().Uint64()
	if got != (1<<40)+want {
		t.Fatalf("caller token balance = %d, want %d", got, (1<<40)+want)
	}
}

func TestDeepCallerDepth(t *testing.T) {
	w := buildTestWorld(t)
	from := w.EOAs[0]
	to := w.DeepCaller
	tx, err := w.SignedTx(from, &to, 0, CalldataUint(4), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewStatsCollector()
	sc.BeginTx()
	res, _ := execTx(t, w, tx, sc.Hooks())
	sc.EndTx()
	if res.Err != nil {
		t.Fatalf("deep call failed: %v", res.Err)
	}
	// n=4 → 5 frames total.
	if sc.Txs[0].CallDepth != 5 {
		t.Fatalf("depth = %d, want 5", sc.Txs[0].CallDepth)
	}
}

func TestStorageHeavyWritesRecords(t *testing.T) {
	w := buildTestWorld(t)
	from := w.EOAs[0]
	to := w.StorageHeavy
	tx, err := w.SignedTx(from, &to, 0, CalldataUint(10), 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res, o := execTx(t, w, tx, nil)
	if res.Err != nil {
		t.Fatalf("storage heavy failed: %v", res.Err)
	}
	// Slots 1..10 written with value slot+1.
	for i := uint64(1); i <= 10; i++ {
		v := o.GetStorage(to, types.BytesToHash(uint256.NewInt(i).Bytes()))
		if v.Word().Uint64() != i+1 {
			t.Fatalf("slot %d = %d", i, v.Word().Uint64())
		}
	}
}

func TestGenerateBlockExecutes(t *testing.T) {
	w := buildTestWorld(t)
	blk, err := w.GenerateBlock(1, types.Hash{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 50 {
		t.Fatalf("txs = %d", len(blk.Txs))
	}
	// All transactions must apply cleanly in order on one overlay.
	o := state.NewOverlay(w.State)
	e := evm.New(NewBlockContext(&blk.Header), o)
	sc := NewStatsCollector()
	e.Hooks = sc.Hooks()
	succeeded := 0
	for i, tx := range blk.Txs {
		sc.BeginTx()
		res, err := e.ApplyTransaction(tx)
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		sc.EndTx()
		if res.Err == nil {
			succeeded++
		}
	}
	if succeeded < 45 {
		t.Fatalf("only %d/50 txs succeeded", succeeded)
	}
	if len(sc.Frames) < 50 {
		t.Fatalf("frames recorded: %d", len(sc.Frames))
	}
}

func TestTableIDistributionShape(t *testing.T) {
	// Generate a decent sample and verify the measured distributions
	// match the Table I shape within tolerance.
	w := buildTestWorld(t)
	o := state.NewOverlay(w.State)
	e := evm.New(evm.BlockContext{Number: 1, GasLimit: 30_000_000}, o)
	sc := NewStatsCollector()
	e.Hooks = sc.Hooks()
	for i := 0; i < 400; i++ {
		tx, _, err := w.GenerateTx()
		if err != nil {
			t.Fatal(err)
		}
		sc.BeginTx()
		if _, err := e.ApplyTransaction(tx); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		sc.EndTx()
	}
	depths := make([]uint64, len(sc.Txs))
	for i, tx := range sc.Txs {
		depths[i] = uint64(tx.CallDepth)
	}
	d := Distribution(depths, DepthBands)
	// Paper: 40.8% / 52.6% / 6.3% / 0.3%. Allow generous sampling noise.
	if d["1"] < 25 || d["1"] > 60 {
		t.Errorf("depth-1 fraction %.1f%% far from 40.8%%", d["1"])
	}
	if d["2-5"] < 35 || d["2-5"] > 70 {
		t.Errorf("depth 2-5 fraction %.1f%% far from 52.6%%", d["2-5"])
	}
	if d["6-10"] > 20 {
		t.Errorf("depth 6-10 fraction %.1f%% far from 6.3%%", d["6-10"])
	}
	// Memory distribution: most frames under 1 KB.
	mems := make([]uint64, len(sc.Frames))
	for i, f := range sc.Frames {
		mems[i] = f.MemorySize
	}
	m := Distribution(mems, SizeBands)
	if m["<1k"] < 70 {
		t.Errorf("frames <1k memory = %.1f%%, want ≈92%%", m["<1k"])
	}
}

func TestMemoryHogExpandsMemory(t *testing.T) {
	w := buildTestWorld(t)
	from := w.EOAs[0]
	to := w.MemoryHog
	tx, err := w.SignedTx(from, &to, 0, CalldataUint(600_000), 25_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewStatsCollector()
	sc.BeginTx()
	res, _ := execTx(t, w, tx, sc.Hooks())
	sc.EndTx()
	if res.Err != nil {
		t.Fatalf("memory hog failed: %v", res.Err)
	}
	if sc.Frames[0].MemorySize < 600_000 {
		t.Fatalf("memory = %d", sc.Frames[0].MemorySize)
	}
}

func TestSignedTxNonceTracking(t *testing.T) {
	w := buildTestWorld(t)
	from := w.EOAs[0]
	to := w.EOAs[1]
	tx1, err := w.SignedTx(from, &to, 1, nil, 21_000)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := w.SignedTx(from, &to, 1, nil, 21_000)
	if err != nil {
		t.Fatal(err)
	}
	if tx1.Nonce != 0 || tx2.Nonce != 1 {
		t.Fatalf("nonces: %d %d", tx1.Nonce, tx2.Nonce)
	}
	if _, err := w.SignedTx(types.Address{}, &to, 1, nil, 21_000); err == nil {
		t.Fatal("unknown EOA accepted")
	}
}
