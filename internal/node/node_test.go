package node

import (
	"context"
	"errors"
	"testing"

	"hardtape/internal/oram"
	"hardtape/internal/pager"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

func buildNode(t testing.TB) (*Node, *workload.World) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.EOAs = 12
	cfg.Tokens = 2
	cfg.DEXes = 1
	w, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	return n, w
}

func TestGenesis(t *testing.T) {
	n, _ := buildNode(t)
	head := n.Head()
	if head.Header.Number != 0 {
		t.Fatalf("genesis number = %d", head.Header.Number)
	}
	if head.Header.StateRoot.IsZero() {
		t.Fatal("genesis state root is zero")
	}
	if _, err := n.BlockByNumber(5); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("unknown block: %v", err)
	}
}

func TestImportBlocks(t *testing.T) {
	n, w := buildNode(t)
	root0 := n.Head().Header.StateRoot
	for i := uint64(1); i <= 3; i++ {
		blk, err := w.GenerateBlock(i, n.Head().Header.Hash(), 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.ImportBlock(blk); err != nil {
			t.Fatalf("import block %d: %v", i, err)
		}
	}
	if n.Head().Header.Number != 3 {
		t.Fatalf("head = %d", n.Head().Header.Number)
	}
	if n.Head().Header.StateRoot == root0 {
		t.Fatal("state root unchanged after 60 transactions")
	}
	// Parent linkage.
	b2, err := n.BlockByNumber(2)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := n.BlockByNumber(1)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Header.ParentHash != b1.Header.Hash() {
		t.Fatal("parent hash linkage broken")
	}
	if n.BlockHash(1) != b1.Header.Hash() {
		t.Fatal("BlockHash lookup")
	}
	if !n.BlockHash(99).IsZero() {
		t.Fatal("BlockHash for unknown height should be zero")
	}
}

func TestImportRejectsBadBlocks(t *testing.T) {
	n, w := buildNode(t)
	// Wrong number.
	blk, err := w.GenerateBlock(5, types.Hash{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ImportBlock(blk); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("wrong number: %v", err)
	}
	// Tampered tx root.
	blk2, err := w.GenerateBlock(1, types.Hash{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	blk2.Header.TxRoot = types.Hash{1}
	if err := n.ImportBlock(blk2); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad tx root: %v", err)
	}
}

func TestImportAppliesBalances(t *testing.T) {
	n, w := buildNode(t)
	from, to := w.EOAs[0], w.EOAs[1]
	tx, err := w.SignedTx(from, &to, 12345, nil, 21_000)
	if err != nil {
		t.Fatal(err)
	}
	blk := &types.Block{Header: n.Head().Header}
	blk.Header.Number = 1
	blk.Header.GasLimit = 30_000_000
	blk.Txs = []*types.Transaction{tx}
	blk.Header.TxRoot = blk.ComputeTxRoot()
	if err := n.ImportBlock(blk); err != nil {
		t.Fatal(err)
	}
	acct, ok := n.State().Account(to)
	if !ok {
		t.Fatal("recipient missing")
	}
	want := uint64(1<<60) + 12345
	if acct.Balance.Uint64() != want {
		t.Fatalf("balance = %d, want %d", acct.Balance.Uint64(), want)
	}
	sender, ok := n.State().Account(from)
	if !ok || sender.Nonce != 1 {
		t.Fatal("sender nonce not committed")
	}
}

func TestAccountProofRoundTrip(t *testing.T) {
	n, w := buildNode(t)
	root := n.Head().Header.StateRoot
	addr := w.EOAs[0]
	p, err := n.ProveAccount(addr)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := VerifyAccountProof(root, p)
	if err != nil {
		t.Fatal(err)
	}
	if acct == nil || acct.Balance.Uint64() != 1<<60 {
		t.Fatalf("verified account: %+v", acct)
	}
	// Wrong root fails.
	if _, err := VerifyAccountProof(types.Hash{1}, p); err == nil {
		t.Fatal("proof verified against wrong root")
	}
}

func TestStorageProofRoundTrip(t *testing.T) {
	n, w := buildNode(t)
	token := w.Tokens[0]
	holder := w.EOAs[0]
	key := types.BytesToHash(holder.Word().Bytes())
	sp, err := n.ProveStorage(token, key)
	if err != nil {
		t.Fatal(err)
	}
	val, err := VerifyStorageProof(sp.Root, sp)
	if err != nil {
		t.Fatal(err)
	}
	if val.Word().Uint64() != 1<<40 {
		t.Fatalf("proven value = %d", val.Word().Uint64())
	}
	// Tampered value doesn't matter (value comes from the proof), but a
	// tampered proof must fail.
	sp.Proof.Nodes[0][0] ^= 0x01
	if _, err := VerifyStorageProof(sp.Root, sp); err == nil {
		t.Fatal("tampered storage proof accepted")
	}
}

// pageInto writes verified accounts' pages, blind, into store: each
// account's meta and storage groups, and its code.
func pageInto(t *testing.T, store *pager.Store, accts ...*Account) {
	t.Helper()
	for _, a := range accts {
		if err := store.WritePages(store.AccountPages(a.Addr, &a.Meta, a.Storage)); err != nil {
			t.Fatal(err)
		}
		if err := store.WritePages(pager.SplitCode(a.Meta.CodeHash, a.Code)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncAllIntoPlainStore: one verified pass returns every account
// with its code (length in the meta) and full record set, and its pages
// written blind serve the meta back.
func TestSyncAllIntoPlainStore(t *testing.T) {
	n, w := buildNode(t)
	accts, err := NewSyncer(n).VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	var records, codePages int
	for _, a := range accts {
		records += len(a.Storage)
		codePages += int(pager.CodePages(a.Meta.CodeLen))
		if int(a.Meta.CodeLen) != len(a.Code) {
			t.Fatalf("%s: meta code length %d, code %d bytes", a.Addr, a.Meta.CodeLen, len(a.Code))
		}
	}
	if len(accts) != len(n.State().Addresses()) || records == 0 || codePages == 0 {
		t.Fatalf("verified %d accounts, %d records, %d code pages", len(accts), records, codePages)
	}
	store := pager.NewStore(pager.NewPlainBackend())
	pageInto(t, store, accts...)
	meta, err := store.ReadAccountMeta(context.Background(), w.Tokens[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta.CodeLen == 0 || meta.CodeHash.IsZero() {
		t.Fatalf("token meta %+v", meta)
	}
}

func TestSyncIntoORAMAndReadBack(t *testing.T) {
	n, w := buildNode(t)
	srv, err := oram.NewMemServer(16384)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := oram.NewClient([]oram.Server{srv}, make([]byte, oram.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	store := pager.NewStore(pager.NewORAMBackend(cli))
	accts, err := NewSyncer(n).VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	pageInto(t, store, accts...)
	// Blind writes: one ORAM access per page, none read back.
	if got := cli.Stats().Accesses; got != uint64(store.Len()) {
		t.Fatalf("%d ORAM accesses to write %d pages", got, store.Len())
	}

	// Read back through the oblivious path: meta, storage, code.
	ctx := context.Background()
	addr := w.EOAs[0]
	meta, err := store.ReadAccountMeta(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Balance.Uint64() != 1<<60 {
		t.Fatalf("meta balance = %d", meta.Balance.Uint64())
	}
	token := w.Tokens[0]
	tokenMeta, err := store.ReadAccountMeta(ctx, token)
	if err != nil {
		t.Fatal(err)
	}
	if tokenMeta.CodeLen == 0 {
		t.Fatal("token code length missing")
	}
	code, err := store.ReadCode(ctx, tokenMeta.CodeHash, tokenMeta.CodeLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != int(tokenMeta.CodeLen) {
		t.Fatalf("code length %d != %d", len(code), tokenMeta.CodeLen)
	}
	key := types.BytesToHash(addr.Word().Bytes())
	val, found, err := store.ReadStorageRecord(ctx, token, key)
	if err != nil || !found {
		t.Fatalf("storage read: %v found=%v", err, found)
	}
	if val.Word().Uint64() != 1<<40 {
		t.Fatalf("storage value = %d", val.Word().Uint64())
	}
}

func TestSyncDetectsTamperedCode(t *testing.T) {
	n, w := buildNode(t)
	// Corrupt the node's code store by registering mismatched code
	// under an account: simulate by syncing against a wrong state root
	// (the adversary serves stale/fake data).
	badRoot := types.Hash{0xde, 0xad}
	if _, err := NewSyncer(n).VerifyAccount(badRoot, w.EOAs[0]); err == nil {
		t.Fatal("sync accepted data against a wrong root")
	}
}

func TestSyncAfterNewBlock(t *testing.T) {
	n, w := buildNode(t)
	syncer := NewSyncer(n)
	// Import a block that changes a balance, re-verify the recipient
	// against the new root, and check its rebuilt page holds the new
	// value.
	from, to := w.EOAs[0], w.EOAs[1]
	tx, err := w.SignedTx(from, &to, 999, nil, 21_000)
	if err != nil {
		t.Fatal(err)
	}
	blk := &types.Block{Header: n.Head().Header}
	blk.Header.Number = 1
	blk.Header.GasLimit = 30_000_000
	blk.Txs = []*types.Transaction{tx}
	blk.Header.TxRoot = blk.ComputeTxRoot()
	if err := n.ImportBlock(blk); err != nil {
		t.Fatal(err)
	}
	acct, err := syncer.VerifyAccount(n.Head().Header.StateRoot, to)
	if err != nil {
		t.Fatal(err)
	}
	store := pager.NewStore(pager.NewPlainBackend())
	pageInto(t, store, acct)
	meta, err := store.ReadAccountMeta(context.Background(), to)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Balance.Uint64() != (1<<60)+999 {
		t.Fatalf("resynced balance = %d", meta.Balance.Uint64())
	}
}

func TestCommitSelfdestructedAccount(t *testing.T) {
	// A block whose transaction selfdestructs a contract must remove
	// the account from the canonical state.
	n, w := buildNode(t)
	// Deploy a suicide contract directly into genesis-like state via a
	// create transaction in block 1.
	from := w.EOAs[0]
	// initcode returning runtime [PUSH20 beneficiary, SELFDESTRUCT]:
	beneficiary := w.EOAs[1]
	runtime := append([]byte{0x73}, beneficiary[:]...) // PUSH20
	runtime = append(runtime, 0xff)                    // SELFDESTRUCT
	initCode := []byte{
		0x60, byte(len(runtime)), // PUSH1 len
		0x60, 0x0a, // PUSH1 offset of runtime (10 = header length)
		0x5f,                     // PUSH0
		0x39,                     // CODECOPY
		0x60, byte(len(runtime)), // PUSH1 len
		0x5f, // PUSH0
		0xf3, // RETURN
	}
	initCode = append(initCode, runtime...)

	tx1, err := w.SignedTx(from, nil, 0, initCode, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	blk1 := &types.Block{Header: n.Head().Header}
	blk1.Header.Number = 1
	blk1.Header.GasLimit = 30_000_000
	blk1.Txs = []*types.Transaction{tx1}
	blk1.Header.TxRoot = blk1.ComputeTxRoot()
	if err := n.ImportBlock(blk1); err != nil {
		t.Fatal(err)
	}
	created := types.CreateAddress(from, 0)
	if _, ok := n.State().Account(created); !ok {
		t.Fatal("contract not committed")
	}

	// Block 2: call it → selfdestruct.
	tx2, err := w.SignedTx(from, &created, 0, nil, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	blk2 := &types.Block{Header: n.Head().Header}
	blk2.Header.Number = 2
	blk2.Header.GasLimit = 30_000_000
	blk2.Txs = []*types.Transaction{tx2}
	blk2.Header.TxRoot = blk2.ComputeTxRoot()
	if err := n.ImportBlock(blk2); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.State().Account(created); ok {
		t.Fatal("selfdestructed account still in canonical state")
	}
}

func TestProveStorageUnknownAccount(t *testing.T) {
	n, _ := buildNode(t)
	if _, err := n.ProveStorage(types.MustAddress("0x00000000000000000000000000000000000000ee"),
		types.Hash{}); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("unknown account: %v", err)
	}
}
