// Package state implements the Ethereum world state: a canonical
// MPT-backed store (WorldState) plus the journaled per-bundle write
// overlay (Overlay) that gives pre-executed transactions temporary,
// revertible world-state modifications (paper §II-A, §IV-B).
package state

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hardtape/internal/keccak"
	"hardtape/internal/mpt"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// Reader is the read-only world-state view the execution engine pulls
// from. Implementations include the direct in-memory WorldState, the
// ORAM-backed reader, and caching wrappers.
type Reader interface {
	// Account returns the account state, or false if it does not exist.
	Account(addr types.Address) (*types.Account, bool)
	// Storage returns the storage record at key (zero hash if unset).
	Storage(addr types.Address, key types.Hash) types.Hash
	// Code returns the contract code for a code hash (nil if unknown).
	Code(codeHash types.Hash) []byte
}

// WorldState is the canonical, MPT-authenticated world state held by a
// Node. It is safe for concurrent reads interleaved with exclusive
// writes (callers synchronize writes; a mutex protects map access).
type WorldState struct {
	mu       sync.RWMutex
	accounts *mpt.SecureTrie
	storage  map[types.Address]*mpt.SecureTrie
	code     map[types.Hash][]byte
	// storageKeys is a preimage index (the secure trie stores hashed
	// keys) so block sync can enumerate an account's records.
	storageKeys map[types.Address]map[types.Hash]struct{}
	// addrs is the preimage index for account addresses.
	addrs map[types.Address]struct{}
}

var _ Reader = (*WorldState)(nil)

// NewWorldState returns an empty world state.
func NewWorldState() *WorldState {
	return &WorldState{
		accounts:    mpt.NewSecure(),
		storage:     make(map[types.Address]*mpt.SecureTrie),
		code:        make(map[types.Hash][]byte),
		storageKeys: make(map[types.Address]map[types.Hash]struct{}),
		addrs:       make(map[types.Address]struct{}),
	}
}

// Account implements Reader.
func (w *WorldState) Account(addr types.Address) (*types.Account, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	enc, err := w.accounts.Get(addr[:])
	if err != nil {
		return nil, false
	}
	acct, err := types.DecodeAccountRLP(enc)
	if err != nil {
		return nil, false
	}
	return acct, true
}

// Storage implements Reader.
func (w *WorldState) Storage(addr types.Address, key types.Hash) types.Hash {
	w.mu.RLock()
	defer w.mu.RUnlock()
	trie, ok := w.storage[addr]
	if !ok {
		return types.Hash{}
	}
	enc, err := trie.Get(key[:])
	if err != nil {
		return types.Hash{}
	}
	return types.BytesToHash(enc)
}

// Code implements Reader.
func (w *WorldState) Code(codeHash types.Hash) []byte {
	if codeHash == types.EmptyCodeHash || codeHash.IsZero() {
		return nil
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.code[codeHash]
}

// SetAccount writes the account record (storage root managed by Root).
func (w *WorldState) SetAccount(addr types.Address, acct *types.Account) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.addrs[addr] = struct{}{}
	return w.accounts.Put(addr[:], acct.Clone().EncodeRLP())
}

// DeleteAccount removes an account entirely.
func (w *WorldState) DeleteAccount(addr types.Address) {
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = w.accounts.Delete(addr[:])
	delete(w.storage, addr)
	delete(w.storageKeys, addr)
	delete(w.addrs, addr)
}

// SetStorage writes one storage record; a zero value deletes the slot.
func (w *WorldState) SetStorage(addr types.Address, key, value types.Hash) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	trie, ok := w.storage[addr]
	if !ok {
		trie = mpt.NewSecure()
		w.storage[addr] = trie
	}
	if value.IsZero() {
		if keys := w.storageKeys[addr]; keys != nil {
			delete(keys, key)
		}
		err := trie.Delete(key[:])
		if errors.Is(err, mpt.ErrNotFound) {
			return nil
		}
		return err
	}
	keys, ok := w.storageKeys[addr]
	if !ok {
		keys = make(map[types.Hash]struct{})
		w.storageKeys[addr] = keys
	}
	keys[key] = struct{}{}
	// Store the minimal big-endian encoding, like Ethereum.
	v := value.Word().Bytes()
	return trie.Put(key[:], v)
}

// SetCode stores contract code, returning its hash.
func (w *WorldState) SetCode(code []byte) types.Hash {
	h := types.Hash(keccak.Sum256(code))
	w.mu.Lock()
	defer w.mu.Unlock()
	cp := make([]byte, len(code))
	copy(cp, code)
	w.code[h] = cp
	return h
}

// Root hashes every account's storage trie on every call (nothing
// tracks which are dirty), writes back each storage root that changed
// and returns the state root. Call after a batch of writes.
func (w *WorldState) Root() (types.Hash, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Deterministic iteration order for reproducibility of any errors.
	addrs := make([]types.Address, 0, len(w.storage))
	for addr := range w.storage {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i][:]) < string(addrs[j][:])
	})
	for _, addr := range addrs {
		enc, err := w.accounts.Get(addr[:])
		if err != nil {
			// Storage exists for an account that was never created;
			// ignore, it is unreachable state.
			continue
		}
		acct, err := types.DecodeAccountRLP(enc)
		if err != nil {
			return types.Hash{}, fmt.Errorf("state: corrupt account %s: %w", addr, err)
		}
		root := types.Hash(w.storage[addr].Hash())
		if acct.StorageRoot != root {
			acct.StorageRoot = root
			if err := w.accounts.Put(addr[:], acct.EncodeRLP()); err != nil {
				return types.Hash{}, fmt.Errorf("state: update storage root: %w", err)
			}
		}
	}
	return types.Hash(w.accounts.Hash()), nil
}

// ProveAccount returns a Merkle proof of the account record.
func (w *WorldState) ProveAccount(addr types.Address) (*mpt.Proof, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.accounts.Prove(addr[:])
}

// ProveStorage returns a Merkle proof of one storage record against the
// account's storage root.
func (w *WorldState) ProveStorage(addr types.Address, key types.Hash) (*mpt.Proof, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	trie, ok := w.storage[addr]
	if !ok {
		return nil, fmt.Errorf("state: no storage for %s: %w", addr, mpt.ErrNotFound)
	}
	return trie.Prove(key[:])
}

// StorageKeys returns all storage keys of an account in deterministic
// order (for block-sync page building).
func (w *WorldState) StorageKeys(addr types.Address) []types.Hash {
	w.mu.RLock()
	defer w.mu.RUnlock()
	keys := make([]types.Hash, 0, len(w.storageKeys[addr]))
	for k := range w.storageKeys[addr] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return string(keys[i][:]) < string(keys[j][:])
	})
	return keys
}

// Addresses returns every account address in deterministic order.
func (w *WorldState) Addresses() []types.Address {
	w.mu.RLock()
	defer w.mu.RUnlock()
	addrs := make([]types.Address, 0, len(w.addrs))
	for a := range w.addrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i][:]) < string(addrs[j][:])
	})
	return addrs
}

// AddBalance credits an account, creating it if needed.
func (w *WorldState) AddBalance(addr types.Address, amount *uint256.Int) error {
	acct, ok := w.Account(addr)
	if !ok {
		acct = types.NewAccount()
	}
	acct.Balance.Add(acct.Balance, amount)
	return w.SetAccount(addr, acct)
}
