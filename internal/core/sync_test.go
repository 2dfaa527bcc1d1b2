package core

import (
	"context"
	"errors"
	"testing"

	"hardtape/internal/baseline"
	"hardtape/internal/node"
	"hardtape/internal/pager"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// syncParityConfigs are the feature sets the post-sync parity tests run
// under: every page in the plain store, and every page behind the ORAM.
var syncParityConfigs = []Features{ConfigE, ConfigFull}

// mine imports one block of txs on top of r's chain, then re-syncs the
// device (step 11).
func (r *rig) mine(t *testing.T, txs ...*types.Transaction) {
	t.Helper()
	blk := &types.Block{Header: r.chain.Head().Header}
	blk.Header.Number++
	blk.Header.GasLimit = 30_000_000
	blk.Txs = txs
	blk.Header.TxRoot = blk.ComputeTxRoot()
	if err := r.chain.ImportBlock(blk); err != nil {
		t.Fatal(err)
	}
	if err := r.device.Sync(); err != nil {
		t.Fatal(err)
	}
}

// signed signs a transaction from the world's EOA i at its tracked
// nonce (the nonce advances: the transaction is meant for a block).
func (r *rig) signed(t *testing.T, i int, to *types.Address, data []byte) *types.Transaction {
	t.Helper()
	tx, err := r.world.SignedTx(r.world.EOAs[i], to, 0, data, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// assertGethParity pre-executes a call from EOA i to `to` and diffs the
// device's trace against baseline.Geth on the node's current state.
func (r *rig) assertGethParity(t *testing.T, i int, to types.Address, data []byte) {
	t.Helper()
	from := r.world.EOAs[i]
	var nonce uint64
	if acct, ok := r.chain.State().Account(from); ok {
		nonce = acct.Nonce
	}
	tx, err := r.world.SignedTxAt(from, nonce, &to, 0, data, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	bundle := &types.Bundle{Txs: []*types.Transaction{tx}}
	res, err := r.device.Execute(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil {
		t.Fatalf("bundle aborted: %v", res.Aborted)
	}
	ref, err := baseline.NewGeth(r.chain.State(), workload.NewBlockContext(&r.chain.Head().Header)).ExecuteBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := tracer.Diff(res.Trace.Txs[0], ref.Trace.Txs[0]); len(diffs) != 0 {
		t.Fatalf("device diverges from the reference after sync (gas %d vs %d): %v",
			res.Trace.Txs[0].GasUsed, ref.Trace.Txs[0].GasUsed, diffs)
	}
}

// deploy mines a block creating a contract from initCode and returns
// its address.
func (r *rig) deploy(t *testing.T, initCode []byte) types.Address {
	t.Helper()
	deployer := r.world.EOAs[0]
	var nonce uint64
	if acct, ok := r.chain.State().Account(deployer); ok {
		nonce = acct.Nonce
	}
	r.mine(t, r.signed(t, 0, nil, initCode))
	created := types.CreateAddress(deployer, nonce)
	if _, ok := r.chain.State().Account(created); !ok {
		t.Fatal("deployment not committed")
	}
	return created
}

// setterInit deploys a contract whose constructor stores 1 in slot 0
// and 2 in slot 1 (one storage group), and whose runtime loads the slot
// named by calldata word 0, then stores calldata word 1 into it.
var setterInit = []byte{
	0x60, 0x01, 0x5f, 0x55, // SSTORE(0, 1)
	0x60, 0x02, 0x60, 0x01, 0x55, // SSTORE(1, 2)
	0x60, 11, 0x60, 19, 0x5f, 0x39, // CODECOPY(0, 19, 11)
	0x60, 11, 0x5f, 0xf3, // RETURN(0, 11)
	// runtime
	0x5f, 0x35, 0x80, 0x54, 0x50, // SLOAD(key = CALLDATALOAD(0)); POP
	0x60, 0x20, 0x35, 0x90, 0x55, // SSTORE(key, CALLDATALOAD(32))
	0x00, // STOP
}

// setCall is the setter's calldata: slot key, then value.
func setCall(key, value uint64) []byte {
	return append(workload.CalldataUint(key), workload.CalldataUint(value)...)
}

// TestSyncClearedSlotBesideLiveSlot: a block clears slot 0 while slot 1
// of the same storage group stays set. After Sync the device must read
// slot 0 as zero, exactly as the reference executor does.
func TestSyncClearedSlotBesideLiveSlot(t *testing.T) {
	for _, f := range syncParityConfigs {
		t.Run(f.Name(), func(t *testing.T) {
			r := buildRig(t, f)
			c := r.deploy(t, setterInit)
			r.assertGethParity(t, 3, c, setCall(0, 7))
			r.mine(t, r.signed(t, 1, &c, setCall(0, 0)))
			r.assertGethParity(t, 3, c, setCall(0, 7))
			r.assertGethParity(t, 3, c, setCall(1, 7))
		})
	}
}

// TestSyncFullyClearedGroup: a block clears every slot of the
// contract's one storage group, so the account has no storage left.
// After Sync the device must read both slots as zero.
func TestSyncFullyClearedGroup(t *testing.T) {
	for _, f := range syncParityConfigs {
		t.Run(f.Name(), func(t *testing.T) {
			r := buildRig(t, f)
			c := r.deploy(t, setterInit)
			r.mine(t, r.signed(t, 1, &c, setCall(0, 0)), r.signed(t, 1, &c, setCall(1, 0)))
			if keys := r.chain.State().StorageKeys(c); len(keys) != 0 {
				t.Fatalf("node still holds %d slots", len(keys))
			}
			r.assertGethParity(t, 3, c, setCall(0, 7))
			r.assertGethParity(t, 3, c, setCall(1, 7))
		})
	}
}

// TestSyncSelfdestructedContract: a block self-destructs a contract.
// After Sync the device must see no account and no code at its address:
// a call to it is a plain 21 000-gas transfer, as in the reference.
func TestSyncSelfdestructedContract(t *testing.T) {
	for _, f := range syncParityConfigs {
		t.Run(f.Name(), func(t *testing.T) {
			r := buildRig(t, f)
			beneficiary := r.world.EOAs[1]
			runtime := append(append([]byte{0x73}, beneficiary[:]...), 0xff) // SELFDESTRUCT(beneficiary)
			initCode := append([]byte{
				0x60, byte(len(runtime)), 0x60, 10, 0x5f, 0x39, // CODECOPY(0, 10, len)
				0x60, byte(len(runtime)), 0x5f, 0xf3, // RETURN(0, len)
			}, runtime...)
			c := r.deploy(t, initCode)
			r.mine(t, r.signed(t, 2, &c, nil))
			if _, ok := r.chain.State().Account(c); ok {
				t.Fatal("self-destructed contract still in the node's state")
			}
			r.assertGethParity(t, 3, c, nil)
		})
	}
}

// pageCounts counts the pages the node's head state pages into, from
// the state itself: one meta page per account plus one page per storage
// group it uses (kv), and the pages of each distinct code blob (code).
func pageCounts(t *testing.T, chain *node.Node) (kv, code int) {
	t.Helper()
	seen := map[types.Hash]bool{}
	grouping := pager.NewStore(pager.NewPlainBackend())
	for _, addr := range chain.State().Addresses() {
		acct, ok := chain.State().Account(addr)
		if !ok {
			continue
		}
		kv++
		groups := map[types.Hash]bool{}
		for _, key := range chain.State().StorageKeys(addr) {
			groups[grouping.GroupKey(key)] = true
		}
		kv += len(groups)
		if h := acct.CodeHash; h != types.EmptyCodeHash && !h.IsZero() && !seen[h] {
			seen[h] = true
			code += int(pager.CodePages(uint32(len(chain.Code(h)))))
		}
	}
	if kv == 0 || code == 0 {
		t.Fatalf("state pages into %d K-V and %d code pages", kv, code)
	}
	return kv, code
}

// TestSyncWritesEachPageOnceIntoItsStore pins a re-sync's traffic on
// the core rig: every page is written exactly once, blind — one ORAM
// access per page the ORAM store holds, no read-back — into the store
// place names. The plain store holds code plus, without ORAMStorage,
// the K-V pages (under ConfigFull: code pages only); the ORAM store
// holds K-V pages under ORAMStorage and code pages only under ORAMCode
// (under ConfigESO: no code page).
func TestSyncWritesEachPageOnceIntoItsStore(t *testing.T) {
	ctx := context.Background()
	for _, f := range []Features{ConfigE, ConfigESO, ConfigFull} {
		t.Run(f.Name(), func(t *testing.T) {
			r := buildRig(t, f)
			kv, code := pageCounts(t, r.chain)
			wantPlain, wantORAM := code, 0
			if f.ORAMStorage {
				wantORAM += kv
			} else {
				wantPlain += kv
			}
			if f.ORAMCode {
				wantORAM += code
			}
			before := r.device.ORAMStats().Accesses
			if err := r.device.Sync(); err != nil {
				t.Fatal(err)
			}
			pages := r.device.pages
			if got := r.device.ORAMStats().Accesses - before; got != uint64(wantORAM) {
				t.Errorf("re-sync made %d ORAM accesses, want %d (one per ORAM page)", got, wantORAM)
			}
			if got := pages.plain.Len(); got != wantPlain {
				t.Errorf("plain store holds %d pages, want %d", got, wantPlain)
			}
			if pages.oram != nil && pages.oram.Len() != wantORAM {
				t.Errorf("ORAM store holds %d pages, want %d", pages.oram.Len(), wantORAM)
			}

			token := r.world.Tokens[0]
			meta, err := pages.place(f).kv.ReadAccountMeta(ctx, token)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pages.plain.ReadCodePage(ctx, meta.CodeHash, 0); err != nil {
				t.Errorf("plain store lacks code page 0: %v", err)
			}
			if f.ORAMStorage {
				if _, err := pages.plain.ReadAccountMeta(ctx, token); !errors.Is(err, pager.ErrPageNotFound) {
					t.Errorf("plain store holds a meta page under ORAMStorage: %v", err)
				}
			}
			if pages.oram != nil && !f.ORAMCode {
				if _, err := pages.oram.ReadCodePage(ctx, meta.CodeHash, 0); !errors.Is(err, pager.ErrPageNotFound) {
					t.Errorf("ORAM store holds a code page without ORAMCode: %v", err)
				}
			}
		})
	}
}
