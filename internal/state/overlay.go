package state

import (
	"hardtape/internal/keccak"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// Overlay is the journaled, revertible write layer a pre-executed
// bundle runs against. Reads fall through to the backing Reader; writes
// stay local and are discarded when the bundle is released (paper
// step 10: "world state modifications made by the pre-executed
// transactions are not written into any persistent storage").
//
// Overlay also tracks EIP-2929 warm/cold access lists, EIP-1153
// transient storage, the gas refund counter, and emitted logs, all of
// which participate in snapshot/revert.
type Overlay struct {
	backend Reader

	accounts  map[types.Address]*accountEntry
	storage   map[storageSlot]types.Hash
	transient map[storageSlot]types.Hash
	code      map[types.Hash][]byte

	warmAddrs map[types.Address]struct{}
	warmSlots map[storageSlot]struct{}

	refund uint64
	logs   []*types.Log

	journal []journalEntry
}

type storageSlot struct {
	addr types.Address
	key  types.Hash
}

// accountEntry is the overlay's mutable view of one account.
type accountEntry struct {
	nonce    uint64
	balance  *uint256.Int
	codeHash types.Hash
	exists   bool
	// destructed marks a SELFDESTRUCT pending end-of-tx deletion.
	destructed bool
	// createdInOverlay marks contracts deployed by this bundle.
	createdInOverlay bool
}

func (e *accountEntry) clone() *accountEntry {
	cp := *e
	cp.balance = e.balance.Clone()
	return &cp
}

// journalEntry undoes one state mutation on revert.
type journalEntry interface{ revert(o *Overlay) }

type (
	accountChange struct {
		addr types.Address
		prev *accountEntry // nil means the entry was absent
	}
	storageChange struct {
		slot    storageSlot
		prev    types.Hash
		existed bool
	}
	transientChange struct {
		slot    storageSlot
		prev    types.Hash
		existed bool
	}
	warmAddrAdd struct{ addr types.Address }
	warmSlotAdd struct{ slot storageSlot }
	refundSet   struct{ prev uint64 }
	logAppend   struct{}
	codeStore   struct{ hash types.Hash }
)

func (j accountChange) revert(o *Overlay) {
	if j.prev == nil {
		delete(o.accounts, j.addr)
	} else {
		o.accounts[j.addr] = j.prev
	}
}

func (j storageChange) revert(o *Overlay) {
	if j.existed {
		o.storage[j.slot] = j.prev
	} else {
		delete(o.storage, j.slot)
	}
}

func (j transientChange) revert(o *Overlay) {
	if j.existed {
		o.transient[j.slot] = j.prev
	} else {
		delete(o.transient, j.slot)
	}
}

func (j warmAddrAdd) revert(o *Overlay) { delete(o.warmAddrs, j.addr) }
func (j warmSlotAdd) revert(o *Overlay) { delete(o.warmSlots, j.slot) }
func (j refundSet) revert(o *Overlay)   { o.refund = j.prev }
func (j logAppend) revert(o *Overlay)   { o.logs = o.logs[:len(o.logs)-1] }
func (j codeStore) revert(o *Overlay)   { delete(o.code, j.hash) }

// NewOverlay returns an overlay over the given backend.
func NewOverlay(backend Reader) *Overlay {
	return &Overlay{
		backend:   backend,
		accounts:  make(map[types.Address]*accountEntry),
		storage:   make(map[storageSlot]types.Hash),
		transient: make(map[storageSlot]types.Hash),
		code:      make(map[types.Hash][]byte),
		warmAddrs: make(map[types.Address]struct{}),
		warmSlots: make(map[storageSlot]struct{}),
	}
}

// loadAccount pulls an account into the overlay (without journaling).
func (o *Overlay) loadAccount(addr types.Address) *accountEntry {
	if e, ok := o.accounts[addr]; ok {
		return e
	}
	var e *accountEntry
	if acct, ok := o.backend.Account(addr); ok {
		e = &accountEntry{
			nonce:    acct.Nonce,
			balance:  acct.Balance.Clone(),
			codeHash: acct.CodeHash,
			exists:   true,
		}
	} else {
		e = &accountEntry{balance: new(uint256.Int), codeHash: types.EmptyCodeHash}
	}
	o.accounts[addr] = e
	return e
}

// mutateAccount journals the previous value then returns a mutable entry.
func (o *Overlay) mutateAccount(addr types.Address) *accountEntry {
	prevEntry, had := o.accounts[addr]
	e := o.loadAccount(addr)
	var prev *accountEntry
	if had {
		prev = prevEntry.clone()
	} else {
		// The freshly loaded entry mirrors the backend; cloning it
		// preserves fall-through semantics on revert.
		prev = e.clone()
	}
	o.journal = append(o.journal, accountChange{addr: addr, prev: prev})
	return e
}

// Exists reports whether the account exists (post-overlay view).
func (o *Overlay) Exists(addr types.Address) bool {
	e := o.loadAccount(addr)
	return e.exists && !e.destructed
}

// CreateAccount marks an account as existing (called on contract
// creation and on first credit).
func (o *Overlay) CreateAccount(addr types.Address) {
	e := o.mutateAccount(addr)
	e.exists = true
	e.createdInOverlay = true
}

// GetBalance returns the current balance (copy).
func (o *Overlay) GetBalance(addr types.Address) *uint256.Int {
	return o.loadAccount(addr).balance.Clone()
}

// AddBalance credits an account.
func (o *Overlay) AddBalance(addr types.Address, amount *uint256.Int) {
	e := o.mutateAccount(addr)
	e.balance.Add(e.balance, amount)
	e.exists = true
}

// SubBalance debits an account (caller checks sufficiency).
func (o *Overlay) SubBalance(addr types.Address, amount *uint256.Int) {
	e := o.mutateAccount(addr)
	e.balance.Sub(e.balance, amount)
}

// GetNonce returns the account nonce.
func (o *Overlay) GetNonce(addr types.Address) uint64 {
	return o.loadAccount(addr).nonce
}

// SetNonce sets the account nonce.
func (o *Overlay) SetNonce(addr types.Address, nonce uint64) {
	e := o.mutateAccount(addr)
	e.nonce = nonce
	e.exists = true
}

// GetCodeHash returns the code hash (EmptyCodeHash for EOAs, zero hash
// for non-existent accounts per EVM EXTCODEHASH semantics).
func (o *Overlay) GetCodeHash(addr types.Address) types.Hash {
	e := o.loadAccount(addr)
	if !e.exists {
		return types.Hash{}
	}
	return e.codeHash
}

// GetCode returns the account's contract code.
func (o *Overlay) GetCode(addr types.Address) []byte {
	e := o.loadAccount(addr)
	if e.codeHash == types.EmptyCodeHash {
		return nil
	}
	if c, ok := o.code[e.codeHash]; ok {
		return c
	}
	return o.backend.Code(e.codeHash)
}

// GetCodeSize returns len(GetCode(addr)).
func (o *Overlay) GetCodeSize(addr types.Address) int {
	return len(o.GetCode(addr))
}

// SetCode deploys code to an account.
func (o *Overlay) SetCode(addr types.Address, code []byte) {
	h := types.Hash(keccak.Sum256(code))
	cp := make([]byte, len(code))
	copy(cp, code)
	if _, dup := o.code[h]; !dup {
		o.code[h] = cp
		o.journal = append(o.journal, codeStore{hash: h})
	}
	e := o.mutateAccount(addr)
	e.codeHash = h
	e.exists = true
}

// GetStorage reads a storage record through the overlay.
func (o *Overlay) GetStorage(addr types.Address, key types.Hash) types.Hash {
	slot := storageSlot{addr, key}
	if v, ok := o.storage[slot]; ok {
		return v
	}
	return o.backend.Storage(addr, key)
}

// GetCommittedStorage reads the pre-bundle value (for SSTORE gas).
func (o *Overlay) GetCommittedStorage(addr types.Address, key types.Hash) types.Hash {
	return o.backend.Storage(addr, key)
}

// SetStorage writes a storage record into the overlay.
func (o *Overlay) SetStorage(addr types.Address, key, value types.Hash) {
	slot := storageSlot{addr, key}
	prev, existed := o.storage[slot]
	o.journal = append(o.journal, storageChange{slot: slot, prev: prev, existed: existed})
	o.storage[slot] = value
}

// GetTransient reads EIP-1153 transient storage.
func (o *Overlay) GetTransient(addr types.Address, key types.Hash) types.Hash {
	return o.transient[storageSlot{addr, key}]
}

// SetTransient writes EIP-1153 transient storage.
func (o *Overlay) SetTransient(addr types.Address, key, value types.Hash) {
	slot := storageSlot{addr, key}
	prev, existed := o.transient[slot]
	o.journal = append(o.journal, transientChange{slot: slot, prev: prev, existed: existed})
	o.transient[slot] = value
}

// Selfdestruct marks the account destructed and zeroes its balance.
// It reports whether the account was not already destructed.
func (o *Overlay) Selfdestruct(addr types.Address) bool {
	e := o.mutateAccount(addr)
	already := e.destructed
	e.destructed = true
	e.balance.Clear()
	return !already
}

// HasSelfdestructed reports pending destruction.
func (o *Overlay) HasSelfdestructed(addr types.Address) bool {
	if e, ok := o.accounts[addr]; ok {
		return e.destructed
	}
	return false
}

// AddLog appends a log record (journaled, so reverts drop it).
func (o *Overlay) AddLog(log *types.Log) {
	o.journal = append(o.journal, logAppend{})
	o.logs = append(o.logs, log)
}

// Logs returns the accumulated logs.
func (o *Overlay) Logs() []*types.Log {
	out := make([]*types.Log, len(o.logs))
	copy(out, o.logs)
	return out
}

// AddRefund increments the SSTORE refund counter.
func (o *Overlay) AddRefund(gas uint64) {
	o.journal = append(o.journal, refundSet{prev: o.refund})
	o.refund += gas
}

// SubRefund decrements the refund counter (clamping at zero).
func (o *Overlay) SubRefund(gas uint64) {
	o.journal = append(o.journal, refundSet{prev: o.refund})
	if gas > o.refund {
		o.refund = 0
		return
	}
	o.refund -= gas
}

// GetRefund returns the refund counter.
func (o *Overlay) GetRefund() uint64 { return o.refund }

// AddressWarm reports and sets address warmth (EIP-2929): it returns
// whether the address was already warm, then warms it.
func (o *Overlay) AddressWarm(addr types.Address) bool {
	if _, ok := o.warmAddrs[addr]; ok {
		return true
	}
	o.warmAddrs[addr] = struct{}{}
	o.journal = append(o.journal, warmAddrAdd{addr: addr})
	return false
}

// SlotWarm reports and sets storage slot warmth (EIP-2929).
func (o *Overlay) SlotWarm(addr types.Address, key types.Hash) bool {
	slot := storageSlot{addr, key}
	if _, ok := o.warmSlots[slot]; ok {
		return true
	}
	o.warmSlots[slot] = struct{}{}
	o.journal = append(o.journal, warmSlotAdd{slot: slot})
	return false
}

// Snapshot returns a revert point.
func (o *Overlay) Snapshot() int { return len(o.journal) }

// RevertToSnapshot undoes every mutation after the snapshot.
func (o *Overlay) RevertToSnapshot(snap int) {
	for i := len(o.journal) - 1; i >= snap; i-- {
		o.journal[i].revert(o)
	}
	o.journal = o.journal[:snap]
}

// BeginTx resets per-transaction scopes: transient storage, access
// lists, the refund counter, and the journal. Cross-transaction
// overlay writes (accounts, storage, code, logs) persist for the rest
// of the bundle.
func (o *Overlay) BeginTx() {
	o.transient = make(map[storageSlot]types.Hash)
	o.warmAddrs = make(map[types.Address]struct{})
	o.warmSlots = make(map[storageSlot]struct{})
	o.refund = 0
	o.journal = o.journal[:0]
}

// FinaliseTx deletes accounts destroyed during the transaction.
func (o *Overlay) FinaliseTx() {
	for addr, e := range o.accounts {
		if e.destructed {
			o.accounts[addr] = &accountEntry{
				balance:  new(uint256.Int),
				codeHash: types.EmptyCodeHash,
			}
		}
	}
}

// TouchedAccounts returns every account the overlay has materialized
// (reads and writes) — used when committing an executed block back to
// the canonical state.
func (o *Overlay) TouchedAccounts() []types.Address {
	out := make([]types.Address, 0, len(o.accounts))
	for addr := range o.accounts {
		out = append(out, addr)
	}
	return out
}

// StorageWrites returns the bundle's dirty storage slots (for traces).
func (o *Overlay) StorageWrites() []types.StorageAccess {
	out := make([]types.StorageAccess, 0, len(o.storage))
	for slot, v := range o.storage {
		out = append(out, types.StorageAccess{
			Address: slot.addr, Slot: slot.key, Value: v, Write: true,
		})
	}
	return out
}
