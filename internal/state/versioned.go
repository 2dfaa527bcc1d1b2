package state

import (
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// This file implements the versioned state layer under the bundle
// executor and its optimistic lanes (DESIGN.md §6):
//
//   - Versioned is the bundle-scope committed buffer. Transactions
//     commit into it strictly in bundle order, so a single resolved
//     entry per account/slot (rather than a per-version list) is
//     enough: a reader either sees the latest committed value or falls
//     through to the bundle's immutable base snapshot. Only the
//     in-order committer reads or writes it; speculative lanes read the
//     base snapshot alone.
//   - TxOverlay is the per-transaction journal: an Overlay
//     whose backend records the first value observed for every
//     account field and storage slot actually consumed (the read set)
//     and whose mutators flag what was written (the write set).
//   - Validation is by value: a transaction's read set is valid iff
//     every consumed value still equals what the committed buffer (or
//     the static base) holds. The base never changes during a bundle —
//     only commits can invalidate a read — so validation needs no base
//     access at all.
//
// Account commits are per-field-aware to keep the classic serializers
// (coinbase fee credits, transfer recipients) from conflicting on
// every transaction: an account whose balance was only Add/SubBalanced
// and never read commits as a signed balance *delta* against the
// current committed value. Any account with a written nonce/code, a
// creation or destruction, or a consumed-and-written balance commits
// absolutely — and then its full observed state joins the read set, so
// the absolute write is only applied when the observation still holds.

// accountFieldMask marks which fields of an account an execution
// consumed (and therefore which fields validation must check).
type accountFieldMask uint8

const (
	readNonce accountFieldMask = 1 << iota
	readBalance
	readCodeHash
	readExists

	readAll = readNonce | readBalance | readCodeHash | readExists
)

// writeFlags marks which mutators touched an account.
type writeFlags uint8

const (
	wroteBalance writeFlags = 1 << iota
	wroteNonce
	wroteCode
	wroteCreated
	wroteDestructed

	// wroteAbsolute selects the flags that force an absolute commit.
	wroteAbsolute = wroteNonce | wroteCode | wroteCreated | wroteDestructed
)

// versionedAccount is one fully resolved account state: the canonical
// absent form is {0, 0, EmptyCodeHash, false}.
type versionedAccount struct {
	nonce    uint64
	balance  uint256.Int
	codeHash types.Hash
	exists   bool
}

func accountOf(acct *types.Account, found bool) versionedAccount {
	if !found {
		return versionedAccount{codeHash: types.EmptyCodeHash}
	}
	return versionedAccount{
		nonce:    acct.Nonce,
		balance:  *acct.Balance,
		codeHash: acct.CodeHash,
		exists:   true,
	}
}

// accountRead pairs a consumed-field mask with the observed values.
type accountRead struct {
	mask accountFieldMask
	obs  versionedAccount
}

// ReadSet is everything a speculative execution observed from outside
// its own writes: first-observed account fields and storage values.
type ReadSet struct {
	accounts map[types.Address]accountRead
	storage  map[storageSlot]types.Hash
}

// Len counts validated entries (accounts + storage slots) — the unit
// the lane clock charges per commit-time validation.
func (rs *ReadSet) Len() int {
	if rs == nil {
		return 0
	}
	return len(rs.accounts) + len(rs.storage)
}

// accountWrite is one account's pending commit: either the full
// resolved final state (absolute), or a signed balance delta plus a
// monotonic exists bit.
type accountWrite struct {
	absolute bool
	final    versionedAccount

	deltaNeg bool
	delta    uint256.Int
	exists   bool
}

// WriteSet is everything a speculative execution wants to publish.
type WriteSet struct {
	accounts map[types.Address]*accountWrite
	storage  map[storageSlot]types.Hash
	code     map[types.Hash][]byte
}

// Len counts committed entries (accounts + storage slots) — the unit
// the lane clock charges per commit.
func (ws *WriteSet) Len() int {
	if ws == nil {
		return 0
	}
	return len(ws.accounts) + len(ws.storage)
}

// Versioned is the bundle-scope committed buffer. It is owned by the
// single in-order committer — speculative lanes never see it — so
// View, Validate and Commit take no lock.
type Versioned struct {
	accounts map[types.Address]versionedAccount
	storage  map[storageSlot]types.Hash
	code     map[types.Hash][]byte
}

// NewVersioned returns an empty committed buffer.
func NewVersioned() *Versioned {
	return &Versioned{
		accounts: make(map[types.Address]versionedAccount),
		storage:  make(map[storageSlot]types.Hash),
		code:     make(map[types.Hash][]byte),
	}
}

// View returns a Reader that resolves committed entries first and
// falls through to base — the committed prefix the commit lane
// executes against. base is charged (clock, caches) only on real
// fall-throughs, so committed-buffer hits stay on-chip.
func (v *Versioned) View(base Reader) Reader {
	return &versionedView{v: v, base: base}
}

type versionedView struct {
	v    *Versioned
	base Reader
}

func (r *versionedView) Account(addr types.Address) (*types.Account, bool) {
	e, ok := r.v.accounts[addr]
	if !ok {
		return r.base.Account(addr)
	}
	if !e.exists {
		return nil, false
	}
	bal := e.balance
	return &types.Account{Nonce: e.nonce, Balance: &bal, CodeHash: e.codeHash}, true
}

func (r *versionedView) Storage(addr types.Address, key types.Hash) types.Hash {
	val, ok := r.v.storage[storageSlot{addr, key}]
	if ok {
		return val
	}
	return r.base.Storage(addr, key)
}

func (r *versionedView) Code(codeHash types.Hash) []byte {
	code, ok := r.v.code[codeHash]
	if ok {
		return code
	}
	return r.base.Code(codeHash)
}

// Validate reports whether every observation in rs still holds against
// the committed buffer. The base snapshot is immutable for the life of
// a bundle, so an entry absent from the buffer cannot have changed —
// validation never touches the base. A nil read set is valid.
func (v *Versioned) Validate(rs *ReadSet) bool {
	if rs == nil {
		return true
	}
	for addr, ar := range rs.accounts {
		cur, ok := v.accounts[addr]
		if !ok {
			// Committed entries are never deleted: absent now means
			// absent at observation time, so the value came from base.
			continue
		}
		if ar.mask&readNonce != 0 && cur.nonce != ar.obs.nonce {
			return false
		}
		if ar.mask&readBalance != 0 && !cur.balance.Eq(&ar.obs.balance) {
			return false
		}
		if ar.mask&readCodeHash != 0 && cur.codeHash != ar.obs.codeHash {
			return false
		}
		if ar.mask&readExists != 0 && cur.exists != ar.obs.exists {
			return false
		}
	}
	for sl, observed := range rs.storage {
		if cur, ok := v.storage[sl]; ok && cur != observed {
			return false
		}
	}
	return true
}

// Commit publishes a validated (or re-executed) transaction's write
// set. Called only by the in-order committer; delta commits resolve
// against the current committed value, falling through to base for
// accounts no earlier transaction touched.
func (v *Versioned) Commit(ws *WriteSet, base Reader) {
	if ws == nil {
		return
	}
	for addr, aw := range ws.accounts {
		if aw.absolute {
			fin := aw.final
			if !fin.exists {
				// Canonicalize deletions so later observations compare
				// equal to a base-absent account.
				fin = versionedAccount{codeHash: types.EmptyCodeHash}
			}
			v.accounts[addr] = fin
			continue
		}
		cur, ok := v.accounts[addr]
		if !ok {
			cur = accountOf(base.Account(addr))
		}
		if aw.deltaNeg {
			cur.balance.Sub(&cur.balance, &aw.delta)
		} else {
			cur.balance.Add(&cur.balance, &aw.delta)
		}
		cur.exists = cur.exists || aw.exists
		v.accounts[addr] = cur
	}
	for sl, val := range ws.storage {
		v.storage[sl] = val
	}
	for h, code := range ws.code {
		if _, dup := v.code[h]; !dup {
			v.code[h] = code
		}
	}
}

// recordingReader sits between a TxOverlay and the state it reads: it
// records the first value observed for every account and storage slot
// and pins it, so repeated reads within one execution return that
// observation even if a commit lands in between.
type recordingReader struct {
	view     Reader
	accounts map[types.Address]versionedAccount
	storage  map[storageSlot]types.Hash
}

func (r *recordingReader) Account(addr types.Address) (*types.Account, bool) {
	if obs, ok := r.accounts[addr]; ok {
		if !obs.exists {
			return nil, false
		}
		bal := obs.balance
		return &types.Account{Nonce: obs.nonce, Balance: &bal, CodeHash: obs.codeHash}, true
	}
	acct, found := r.view.Account(addr)
	r.accounts[addr] = accountOf(acct, found)
	return acct, found
}

func (r *recordingReader) Storage(addr types.Address, key types.Hash) types.Hash {
	sl := storageSlot{addr, key}
	if val, ok := r.storage[sl]; ok {
		return val
	}
	val := r.view.Storage(addr, key)
	r.storage[sl] = val
	return val
}

// Code is content-addressed: the bytes behind a hash never change, so
// code reads need neither pinning nor validation (the consuming
// account's codeHash field covers them).
func (r *recordingReader) Code(codeHash types.Hash) []byte {
	return r.view.Code(codeHash)
}

// txFlags tracks one account's consumption and mutation within a
// speculative transaction. Deliberately not journaled: a reverted
// write leaves its flag set, but then the final value equals the
// observed one, so the forced-absolute commit is validated a no-op.
type txFlags struct {
	consumed accountFieldMask
	written  writeFlags
}

// TxOverlay is the speculative per-transaction journal: a full Overlay
// running against a recording view of the versioned state, with the
// Journal read methods overridden to mark consumed account fields and
// the mutators overridden to mark writes. Finish extracts the read and
// write sets for conflict detection and in-order commit.
type TxOverlay struct {
	*Overlay
	rec *recordingReader
	// orig serves GetCommittedStorage: SSTORE gas keys off the
	// pre-BUNDLE value (a bundle-wide Overlay reads its static
	// backend), so it must bypass both the committed buffer and the
	// recorder. Base values are immutable — no validation needed.
	orig  Reader
	flags map[types.Address]*txFlags
}

var _ Journal = (*TxOverlay)(nil)

// NewTxOverlay builds a per-transaction journal over the bundle's
// immutable base reader, seen through the committed buffer v. A nil v
// reads the base alone — a speculative lane, whose read set the
// committer validates by value against v afterwards.
func NewTxOverlay(v *Versioned, base Reader) *TxOverlay {
	view := base
	if v != nil {
		view = v.View(base)
	}
	rec := &recordingReader{
		view:     view,
		accounts: make(map[types.Address]versionedAccount),
		storage:  make(map[storageSlot]types.Hash),
	}
	return &TxOverlay{
		Overlay: NewOverlay(rec),
		rec:     rec,
		orig:    base,
		flags:   make(map[types.Address]*txFlags),
	}
}

func (t *TxOverlay) fl(addr types.Address) *txFlags {
	f, ok := t.flags[addr]
	if !ok {
		f = &txFlags{}
		t.flags[addr] = f
	}
	return f
}

func (t *TxOverlay) consume(addr types.Address, m accountFieldMask) {
	t.fl(addr).consumed |= m
}

func (t *TxOverlay) wrote(addr types.Address, w writeFlags) {
	t.fl(addr).written |= w
}

// Consuming reads.

func (t *TxOverlay) Exists(addr types.Address) bool {
	t.consume(addr, readExists)
	return t.Overlay.Exists(addr)
}

func (t *TxOverlay) GetBalance(addr types.Address) *uint256.Int {
	t.consume(addr, readBalance)
	return t.Overlay.GetBalance(addr)
}

func (t *TxOverlay) GetNonce(addr types.Address) uint64 {
	t.consume(addr, readNonce)
	return t.Overlay.GetNonce(addr)
}

func (t *TxOverlay) GetCodeHash(addr types.Address) types.Hash {
	// The EXTCODEHASH result folds in existence (zero hash for absent
	// accounts), so both fields are consumed.
	t.consume(addr, readCodeHash|readExists)
	return t.Overlay.GetCodeHash(addr)
}

func (t *TxOverlay) GetCode(addr types.Address) []byte {
	t.consume(addr, readCodeHash)
	return t.Overlay.GetCode(addr)
}

func (t *TxOverlay) GetCodeSize(addr types.Address) int {
	t.consume(addr, readCodeHash)
	return t.Overlay.GetCodeSize(addr)
}

// Flagging mutators.

func (t *TxOverlay) CreateAccount(addr types.Address) {
	t.wrote(addr, wroteCreated)
	t.Overlay.CreateAccount(addr)
}

func (t *TxOverlay) AddBalance(addr types.Address, amount *uint256.Int) {
	t.wrote(addr, wroteBalance)
	t.Overlay.AddBalance(addr, amount)
}

func (t *TxOverlay) SubBalance(addr types.Address, amount *uint256.Int) {
	t.wrote(addr, wroteBalance)
	t.Overlay.SubBalance(addr, amount)
}

func (t *TxOverlay) SetNonce(addr types.Address, nonce uint64) {
	t.wrote(addr, wroteNonce)
	t.Overlay.SetNonce(addr, nonce)
}

func (t *TxOverlay) SetCode(addr types.Address, code []byte) {
	t.wrote(addr, wroteCode)
	t.Overlay.SetCode(addr, code)
}

func (t *TxOverlay) Selfdestruct(addr types.Address) bool {
	t.wrote(addr, wroteDestructed)
	return t.Overlay.Selfdestruct(addr)
}

// GetCommittedStorage reads the pre-bundle value straight from the
// base snapshot (see the orig field).
func (t *TxOverlay) GetCommittedStorage(addr types.Address, key types.Hash) types.Hash {
	return t.orig.Storage(addr, key)
}

// Finish extracts the transaction's read and write sets. Call it after
// ApplyTransaction; on a speculation failure only the read set is
// meaningful (the write set must not be committed).
func (t *TxOverlay) Finish() (*ReadSet, *WriteSet) {
	rs := &ReadSet{
		accounts: make(map[types.Address]accountRead),
		storage:  t.rec.storage,
	}
	ws := &WriteSet{
		accounts: make(map[types.Address]*accountWrite),
		storage:  t.Overlay.storage,
		code:     t.Overlay.code,
	}
	for addr, fl := range t.flags {
		obs, haveObs := t.rec.accounts[addr]
		if !haveObs {
			// Every consumed or mutated account passed through
			// loadAccount and thus the recorder; canonical-absent is a
			// defensive default.
			obs = versionedAccount{codeHash: types.EmptyCodeHash}
		}
		consumed := fl.consumed
		if fl.written != 0 {
			// A fully reverted first touch deletes the overlay entry;
			// the net effect is then the observation itself.
			final := obs
			if e, ok := t.Overlay.accounts[addr]; ok {
				final = versionedAccount{
					nonce:    e.nonce,
					balance:  *e.balance,
					codeHash: e.codeHash,
					exists:   e.exists && !e.destructed,
				}
			}
			switch {
			case fl.written&wroteAbsolute != 0 ||
				(fl.written&wroteBalance != 0 && consumed&readBalance != 0):
				// Absolute commits publish the final resolved state, so
				// every field the resolution depended on must still
				// hold at commit time: force-consume all of them.
				consumed = readAll
				ws.accounts[addr] = &accountWrite{absolute: true, final: final}
			case fl.written&wroteBalance != 0:
				// Unread balance: commit the signed delta so concurrent
				// fee credits (coinbase, transfer recipients) compose
				// instead of conflicting.
				aw := &accountWrite{exists: final.exists}
				if final.balance.Lt(&obs.balance) {
					aw.deltaNeg = true
					aw.delta.Sub(&obs.balance, &final.balance)
				} else {
					aw.delta.Sub(&final.balance, &obs.balance)
				}
				if !aw.delta.IsZero() || (aw.exists && !obs.exists) {
					ws.accounts[addr] = aw
				}
			}
		}
		if consumed != 0 {
			rs.accounts[addr] = accountRead{mask: consumed, obs: obs}
		}
	}
	return rs, ws
}
