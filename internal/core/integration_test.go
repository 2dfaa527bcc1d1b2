package core

import (
	"errors"
	"fmt"
	"testing"

	"hardtape/internal/hevm"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// TestFullLifecycleAcrossBlocks drives the complete paper workflow
// over several chain epochs: blocks execute on the node (step 11),
// the device re-syncs with Merkle verification, and pre-executions
// against each new state version keep matching ground truth (§VI-B).
func TestFullLifecycleAcrossBlocks(t *testing.T) {
	r := newRig(t, laneWorld, config(ConfigFull, 2, 0))
	w, chain, dev := r.world, r.chain, r.device

	for epoch := uint64(1); epoch <= 3; epoch++ {
		// New on-chain traffic. Pre-execution txs generated below are
		// never mined, so realign the generator's nonce tracking with
		// the canonical state first.
		w.SyncNonces(chain.State())
		blk, err := w.GenerateBlock(epoch, chain.Head().Header.Hash(), 15)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.ImportBlock(blk); err != nil {
			t.Fatalf("epoch %d import: %v", epoch, err)
		}
		// Step 11: re-sync the ORAM.
		if err := dev.Sync(); err != nil {
			t.Fatalf("epoch %d sync: %v", epoch, err)
		}

		// Pre-execute a batch against the fresh state and diff against
		// the reference executor on the same state.
		for i := 0; i < 5; i++ {
			tx, _, err := w.GenerateTx()
			if err != nil {
				t.Fatal(err)
			}
			sender, err := tx.Sender()
			if err != nil {
				t.Fatal(err)
			}
			nonce := uint64(0)
			if acct, ok := chain.State().Account(sender); ok {
				nonce = acct.Nonce
			}
			tx, err = w.SignedTxAt(sender, nonce, tx.To, tx.Value.Uint64(), tx.Data, tx.GasLimit)
			if err != nil {
				t.Fatal(err)
			}
			bundle := &types.Bundle{Txs: []*types.Transaction{tx}}

			res, err := dev.Execute(bundle)
			if err != nil {
				t.Fatalf("epoch %d bundle %d: %v", epoch, i, err)
			}
			if res.Aborted != nil {
				continue
			}
			assertParity(t, fmt.Sprintf("epoch %d bundle %d", epoch, i), r.oracle(t, bundle), res, false)
		}
	}
}

// TestBalancesVisibleAfterSync pins the exact data path: a balance
// changed by an imported block must be served through the ORAM on the
// next bundle, and a contract the block deploys — code, code length
// and constructor storage, all new since the first Sync — must run
// after the second Sync exactly as the reference executor runs it.
func TestBalancesVisibleAfterSync(t *testing.T) {
	r := newRig(t, deviceWorld, config(ConfigFull, 2, 0))
	from, to := r.world.EOAs[3], r.world.EOAs[4]

	// On-chain transfer of 5000 wei.
	tx, err := r.world.SignedTx(from, &to, 5000, nil, 21_000)
	if err != nil {
		t.Fatal(err)
	}
	// On-chain deployment of a contract spanning several code pages:
	// the constructor sets slot 7 = 42; the runtime stores
	// slot 7 + calldata[0] into slot 8.
	runtime := workload.PaddedRuntime([]byte{
		0x60, 0x07, 0x54, // SLOAD(7)
		0x5f, 0x35, 0x01, // + CALLDATALOAD(0)
		0x60, 0x08, 0x55, // SSTORE(8, ·)
		0x00, // STOP
	}, 3000)
	n := len(runtime)
	initCode := append([]byte{
		0x60, 0x2a, 0x60, 0x07, 0x55, // SSTORE(7, 42)
		0x61, byte(n >> 8), byte(n), 0x60, 17, 0x5f, 0x39, // CODECOPY(0, 17, n)
		0x61, byte(n >> 8), byte(n), 0x5f, 0xf3, // RETURN(0, n)
	}, runtime...)
	deployer := r.world.EOAs[5]
	deploy, err := r.world.SignedTx(deployer, nil, 0, initCode, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	blk := &types.Block{Header: r.chain.Head().Header}
	blk.Header.Number = 1
	blk.Header.GasLimit = 30_000_000
	blk.Txs = []*types.Transaction{tx, deploy}
	blk.Header.TxRoot = blk.ComputeTxRoot()
	if err := r.chain.ImportBlock(blk); err != nil {
		t.Fatal(err)
	}
	if err := r.device.Sync(); err != nil {
		t.Fatal(err)
	}

	// Pre-execute a plain transfer FROM the recipient: its gas check
	// reads the post-block balance through the oblivious path. Use the
	// recipient's canonical nonce.
	nonce := uint64(0)
	if acct, ok := r.chain.State().Account(to); ok {
		nonce = acct.Nonce
	}
	probe, err := r.world.SignedTxAt(to, nonce, &from, 1, nil, 21_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.device.Execute(&types.Bundle{Txs: []*types.Transaction{probe}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil || res.Trace.Txs[0].Failed {
		t.Fatalf("post-sync bundle failed: %+v", res)
	}

	created := types.CreateAddress(deployer, deploy.Nonce)
	if _, ok := r.chain.State().Account(created); !ok {
		t.Fatal("deployment not committed by the imported block")
	}
	caller := r.world.EOAs[6]
	call, err := r.world.SignedTxAt(caller, 0, &created, 0, workload.CalldataUint(5), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	bundle := &types.Bundle{Txs: []*types.Transaction{call}}
	res, err = r.device.Execute(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil || res.Trace.Txs[0].Failed {
		t.Fatalf("call into the synced contract failed: %+v", res)
	}
	assertParity(t, "synced contract", r.oracle(t, bundle), res, false)
}

// TestEvaluationSetCorrectnessAtScale is the §VI-B experiment at a
// larger sample size (guarded by -short).
func TestEvaluationSetCorrectnessAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large correctness sweep skipped in -short mode")
	}
	r := newRig(t, deviceWorld, config(ConfigFull, 2, 0))
	matched, aborted := 0, 0
	const n = 150
	for i := 0; i < n; i++ {
		tx, _, err := r.world.GenerateTx()
		if err != nil {
			t.Fatal(err)
		}
		sender, err := tx.Sender()
		if err != nil {
			t.Fatal(err)
		}
		tx, err = r.world.SignedTxAt(sender, 0, tx.To, tx.Value.Uint64(), tx.Data, tx.GasLimit)
		if err != nil {
			t.Fatal(err)
		}
		bundle := &types.Bundle{Txs: []*types.Transaction{tx}}
		res, err := r.device.Execute(bundle)
		if err != nil {
			t.Fatalf("bundle %d: %v", i, err)
		}
		if res.Aborted != nil {
			aborted++
			continue
		}
		assertParity(t, fmt.Sprintf("bundle %d", i), r.oracle(t, bundle), res, false)
		matched++
	}
	if matched+aborted != n {
		t.Fatalf("accounting: %d + %d != %d", matched, aborted, n)
	}
	t.Logf("§VI-B at scale: %d/%d identical, %d overflow aborts", matched, n, aborted)
}

// TestRollupTransactionHitsOverflow reproduces §VI-B's observation:
// roll-up transactions (huge calldata blobs) exceed the layer-2 frame
// size limit and abort with the Memory Overflow Error, while the
// unprotected baseline executes them fine — support is future work.
func TestRollupTransactionHitsOverflow(t *testing.T) {
	r := newRig(t, deviceWorld, config(ConfigRaw, 2, 0))
	tx, err := r.world.RollupTx(r.world.EOAs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	bundle := &types.Bundle{Txs: []*types.Transaction{tx}}

	res, err := r.device.Execute(bundle)
	if err != nil {
		t.Fatal(err)
	}
	var moe *hevm.MemoryOverflowError
	if !errors.As(res.Aborted, &moe) {
		t.Fatalf("roll-up should hit Memory Overflow, got %v", res.Aborted)
	}
	// The software baseline handles the same transaction.
	if r.oracle(t, bundle).Trace.Txs[0].Failed {
		t.Fatal("baseline execution failed")
	}
}
