package state

import (
	"testing"

	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

func testWorld(t *testing.T) *WorldState {
	t.Helper()
	w := NewWorldState()
	for b := byte(1); b <= 4; b++ {
		acct := types.NewAccount()
		acct.Nonce = uint64(b)
		acct.Balance.SetUint64(1000)
		if err := w.SetAccount(addr(b), acct); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SetStorage(addr(1), hashOf(7), hashOf(42)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestVersionedWriteAfterWrite: two transactions write the same slot;
// committing them in bundle order must leave the later value, and a
// view opened afterwards must see it.
func TestVersionedWriteAfterWrite(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	t1 := NewTxOverlay(v, w)
	t1.BeginTx()
	t1.SetStorage(addr(1), hashOf(7), hashOf(100))
	_, ws1 := t1.Finish()

	t2 := NewTxOverlay(v, w)
	t2.BeginTx()
	t2.SetStorage(addr(1), hashOf(7), hashOf(200))
	_, ws2 := t2.Finish()

	v.Commit(ws1)
	v.Commit(ws2)

	if got := v.View(w).Storage(addr(1), hashOf(7)); got != hashOf(200) {
		t.Fatalf("WAW slot = %s, want later writer's value %s", got, hashOf(200))
	}
}

// TestVersionedBaseOnlyOverlay: a speculative lane's overlay (nil
// committed buffer) reads the base snapshot even after a commit changed
// the slot, and its read set validates by value — stale iff the
// committed prefix now holds something else.
func TestVersionedBaseOnlyOverlay(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	writer := NewTxOverlay(v, w)
	writer.BeginTx()
	writer.SetStorage(addr(1), hashOf(7), hashOf(100))
	writer.SetStorage(addr(2), hashOf(9), hashOf(0))
	_, ws := writer.Finish()
	v.Commit(ws)

	stale := NewTxOverlay(nil, w)
	stale.BeginTx()
	if got := stale.GetStorage(addr(1), hashOf(7)); got != hashOf(42) {
		t.Fatalf("base-only read %s, want the base value %s", got, hashOf(42))
	}
	if rs, _ := stale.Finish(); v.Validate(rs) {
		t.Fatal("base read of a slot the prefix changed must fail validation")
	}

	same := NewTxOverlay(nil, w)
	same.BeginTx()
	same.GetStorage(addr(2), hashOf(9)) // committed, but to its base value
	if rs, _ := same.Finish(); !v.Validate(rs) {
		t.Fatal("base read of a slot committed to the same value must validate")
	}
}

// TestVersionedAbortedWritesInvisible: a speculative transaction that
// fails (its write set is never committed) must leave no trace — a
// concurrent reader and a later transaction both see the base value.
func TestVersionedAbortedWritesInvisible(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	aborted := NewTxOverlay(v, w)
	aborted.BeginTx()
	aborted.SetStorage(addr(1), hashOf(7), hashOf(99))
	// Speculation failed: Finish is called (the scheduler always
	// extracts the read set) but the write set is dropped.
	rs, _ := aborted.Finish()
	if !v.Validate(rs) {
		t.Fatal("untouched buffer should validate the aborted tx's reads")
	}

	if got := v.View(w).Storage(addr(1), hashOf(7)); got != hashOf(42) {
		t.Fatalf("view sees aborted write: %s, want base %s", got, hashOf(42))
	}
	next := NewTxOverlay(v, w)
	next.BeginTx()
	if got := next.GetStorage(addr(1), hashOf(7)); got != hashOf(42) {
		t.Fatalf("later tx sees aborted write: %s, want base %s", got, hashOf(42))
	}
}

// TestVersionedStorageConflict: a transaction that read a slot another
// transaction then committed a different value for must fail
// validation — and must pass once re-speculated against the new value.
func TestVersionedStorageConflict(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	reader := NewTxOverlay(v, w)
	reader.BeginTx()
	if got := reader.GetStorage(addr(1), hashOf(7)); got != hashOf(42) {
		t.Fatalf("read %s, want %s", got, hashOf(42))
	}
	rs, _ := reader.Finish()
	if !v.Validate(rs) {
		t.Fatal("read set should validate before any commit")
	}

	writer := NewTxOverlay(v, w)
	writer.BeginTx()
	writer.SetStorage(addr(1), hashOf(7), hashOf(100))
	_, ws := writer.Finish()
	v.Commit(ws)

	if v.Validate(rs) {
		t.Fatal("stale read of a committed slot must fail validation")
	}

	retry := NewTxOverlay(v, w)
	retry.BeginTx()
	if got := retry.GetStorage(addr(1), hashOf(7)); got != hashOf(100) {
		t.Fatalf("re-speculation reads %s, want committed %s", got, hashOf(100))
	}
	rs2, _ := retry.Finish()
	if !v.Validate(rs2) {
		t.Fatal("re-speculated read set should validate")
	}
}

// TestVersionedDoubleConflict: the same logical transaction conflicts
// twice — each re-speculation is invalidated by another commit — and
// only the third execution validates. This is the state-level core of
// the scheduler's conflicts-twice-re-executes-twice path.
func TestVersionedDoubleConflict(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	speculate := func() *ReadSet {
		txo := NewTxOverlay(v, w)
		txo.BeginTx()
		txo.GetStorage(addr(1), hashOf(7))
		rs, _ := txo.Finish()
		return rs
	}
	commitWrite := func(val types.Hash) {
		txo := NewTxOverlay(v, w)
		txo.BeginTx()
		txo.SetStorage(addr(1), hashOf(7), val)
		_, ws := txo.Finish()
		v.Commit(ws)
	}

	rs := speculate()
	commitWrite(hashOf(1)) // first conflicting commit
	if v.Validate(rs) {
		t.Fatal("first speculation should conflict")
	}
	rs = speculate() // re-execution #1
	commitWrite(hashOf(2))
	if v.Validate(rs) {
		t.Fatal("second speculation should conflict again")
	}
	rs = speculate() // re-execution #2
	if !v.Validate(rs) {
		t.Fatal("third speculation should finally validate")
	}
}

// TestVersionedBalanceDelta: accounts whose balance is only credited
// (never read) commit as deltas, so two fee credits compose without
// conflicting — the coinbase case that would otherwise serialize every
// bundle.
func TestVersionedBalanceDelta(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()
	coinbase := addr(9) // absent in base

	credit := func(n uint64) (*ReadSet, *WriteSet) {
		txo := NewTxOverlay(v, w)
		txo.BeginTx()
		txo.AddBalance(coinbase, uint256.NewInt(n))
		return txo.Finish()
	}

	// Both txs speculate before either commits.
	_, ws1 := credit(10)
	rs2, ws2 := credit(25)

	v.Commit(ws1)
	if !v.Validate(rs2) {
		t.Fatal("pure credit must not conflict with an earlier credit")
	}
	v.Commit(ws2)

	acct, ok := v.View(w).Account(coinbase)
	if !ok {
		t.Fatal("credited account should exist")
	}
	if got := acct.Balance.Uint64(); got != 35 {
		t.Fatalf("composed balance = %d, want 35", got)
	}
}

// TestVersionedBalanceReadConflicts: once a transaction reads a
// balance, a concurrent change to it must invalidate the read.
func TestVersionedBalanceReadConflicts(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	reader := NewTxOverlay(v, w)
	reader.BeginTx()
	if got := reader.GetBalance(addr(2)).Uint64(); got != 1000 {
		t.Fatalf("balance = %d, want 1000", got)
	}
	rs, _ := reader.Finish()

	// Another tx reads-and-spends from addr(2): absolute commit.
	spender := NewTxOverlay(v, w)
	spender.BeginTx()
	spender.GetBalance(addr(2))
	spender.SubBalance(addr(2), uint256.NewInt(1))
	_, ws := spender.Finish()
	v.Commit(ws)

	if v.Validate(rs) {
		t.Fatal("balance read must conflict with a committed spend")
	}
}

// TestVersionedAbsoluteForcesFullValidation: an account committed
// absolutely (here: a nonce write) joins the read set with every field
// consumed, so an earlier delta credit to the same account conflicts
// instead of being silently overwritten.
func TestVersionedAbsoluteForcesFullValidation(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()
	target := addr(3)

	// Tx B (later in bundle order) bumps the nonce — an absolute
	// account write — speculated before A commits.
	b := NewTxOverlay(v, w)
	b.BeginTx()
	b.SetNonce(target, b.GetNonce(target)+1)
	rsB, _ := b.Finish()

	// Tx A (earlier) credits the same account as a pure delta.
	a := NewTxOverlay(v, w)
	a.BeginTx()
	a.AddBalance(target, uint256.NewInt(5))
	_, wsA := a.Finish()
	v.Commit(wsA)

	if v.Validate(rsB) {
		t.Fatal("absolute write must conflict with the earlier balance delta")
	}

	// Re-speculated B sees the credited balance and commits on top.
	b2 := NewTxOverlay(v, w)
	b2.BeginTx()
	b2.SetNonce(target, b2.GetNonce(target)+1)
	rsB2, wsB2 := b2.Finish()
	if !v.Validate(rsB2) {
		t.Fatal("re-speculated absolute write should validate")
	}
	v.Commit(wsB2)

	acct, ok := v.View(w).Account(target)
	if !ok {
		t.Fatal("account should exist")
	}
	if acct.Nonce != 4 || acct.Balance.Uint64() != 1005 {
		t.Fatalf("final account = nonce %d balance %d, want nonce 4 balance 1005",
			acct.Nonce, acct.Balance.Uint64())
	}
}

// TestVersionedDeletionCanonical: an absolute commit of a
// non-existent final state must compare equal to base-absent for later
// validation (canonical empty form).
func TestVersionedDeletionCanonical(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()
	victim := addr(4)

	// Destroy the account (selfdestruct path: read, destruct, finalise).
	killer := NewTxOverlay(v, w)
	killer.BeginTx()
	killer.GetBalance(victim)
	killer.Selfdestruct(victim)
	killer.FinaliseTx()
	_, ws := killer.Finish()
	v.Commit(ws)

	if _, ok := v.View(w).Account(victim); ok {
		t.Fatal("destroyed account should not resolve")
	}

	// A later tx observing the absence must validate.
	probe := NewTxOverlay(v, w)
	probe.BeginTx()
	if probe.Exists(victim) {
		t.Fatal("destroyed account should not exist")
	}
	rs, _ := probe.Finish()
	if !v.Validate(rs) {
		t.Fatal("observation of canonical deletion should validate")
	}
}

// TestVersionedPinnedReads: within one speculation, re-reading a slot
// returns the pinned first observation even if the committer published
// a new value in between — execution stays self-consistent.
func TestVersionedPinnedReads(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	txo := NewTxOverlay(v, w)
	txo.BeginTx()
	first := txo.GetStorage(addr(1), hashOf(7))

	// Concurrent commit changes the slot mid-speculation.
	writer := NewTxOverlay(v, w)
	writer.BeginTx()
	writer.SetStorage(addr(1), hashOf(7), hashOf(200))
	_, ws := writer.Finish()
	v.Commit(ws)

	second := txo.GetStorage(addr(1), hashOf(7))
	if first != second {
		t.Fatalf("read not pinned: first %s, second %s", first, second)
	}
	// And the stale observation is caught at validation.
	rs, _ := txo.Finish()
	if v.Validate(rs) {
		t.Fatal("pinned stale read must fail validation")
	}
}

// TestVersionedCommittedStorageBypass: GetCommittedStorage must keep
// returning the pre-bundle value even after a commit changed the slot
// (sequential overlays read their static backend for SSTORE gas).
func TestVersionedCommittedStorageBypass(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	writer := NewTxOverlay(v, w)
	writer.BeginTx()
	writer.SetStorage(addr(1), hashOf(7), hashOf(200))
	_, ws := writer.Finish()
	v.Commit(ws)

	txo := NewTxOverlay(v, w)
	txo.BeginTx()
	if got := txo.GetStorage(addr(1), hashOf(7)); got != hashOf(200) {
		t.Fatalf("current value = %s, want committed %s", got, hashOf(200))
	}
	if got := txo.GetCommittedStorage(addr(1), hashOf(7)); got != hashOf(42) {
		t.Fatalf("committed (pre-bundle) value = %s, want base %s", got, hashOf(42))
	}
}

// TestVersionedRevertedWriteIsNoop: a write that is fully reverted
// still flags the account, but the forced-absolute commit equals the
// validated observation — committing it is a no-op.
func TestVersionedRevertedWriteIsNoop(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()

	txo := NewTxOverlay(v, w)
	txo.BeginTx()
	snap := txo.Snapshot()
	txo.SetNonce(addr(2), 99)
	txo.RevertToSnapshot(snap)
	rs, ws := txo.Finish()
	if !v.Validate(rs) {
		t.Fatal("reverted write should validate")
	}
	v.Commit(ws)

	acct, ok := v.View(w).Account(addr(2))
	if !ok || acct.Nonce != 2 {
		t.Fatalf("account after no-op commit: %+v ok=%v, want nonce 2", acct, ok)
	}
}

// TestVersionedCodeCommit: deployed code resolves through the view for
// later transactions.
func TestVersionedCodeCommit(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()
	contract := addr(8)
	code := []byte{0x60, 0x00, 0x60, 0x00, 0xf3}

	deployer := NewTxOverlay(v, w)
	deployer.BeginTx()
	deployer.CreateAccount(contract)
	deployer.SetNonce(contract, 1)
	deployer.SetCode(contract, code)
	_, ws := deployer.Finish()
	v.Commit(ws)

	reader := NewTxOverlay(v, w)
	reader.BeginTx()
	got := reader.GetCode(contract)
	if string(got) != string(code) {
		t.Fatalf("committed code = %x, want %x", got, code)
	}
}

// TestVersionedCodeSizeReadConflicts: EXTCODESIZE consumes the account's
// code hash. tx0 deploys a contract to an address that tx1, speculated
// against the base, measured as empty; once tx0 commits, tx1 must
// conflict.
func TestVersionedCodeSizeReadConflicts(t *testing.T) {
	w := testWorld(t)
	v := NewVersioned()
	target := addr(9)

	deploy := NewTxOverlay(v, w)
	deploy.BeginTx()
	deploy.CreateAccount(target)
	deploy.SetNonce(target, 1)
	deploy.SetCode(target, []byte{0x60, 0x07, 0x00})

	measure := NewTxOverlay(nil, w)
	measure.BeginTx()
	if n := measure.GetCodeSize(target); n != 0 {
		t.Fatalf("base code size %d, want 0", n)
	}
	rs, _ := measure.Finish()
	if !v.Validate(rs) {
		t.Fatal("a code-size read must validate before any commit")
	}
	_, ws := deploy.Finish()
	v.Commit(ws)
	if v.Validate(rs) {
		t.Fatal("a code-size read of an address deployed to by an earlier commit validated")
	}
}
