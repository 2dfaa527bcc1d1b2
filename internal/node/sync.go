package node

import (
	"fmt"

	"hardtape/internal/keccak"
	"hardtape/internal/pager"
	"hardtape/internal/types"
)

// Syncer implements workflow step 11: after new blocks execute, the
// world state is pulled from the (untrusted) Node with Merkle proofs,
// verified on the trusted side once, and written — re-paged — into
// every page store of the pre-executor (its plain mirror, plus the
// ORAM in the -full configuration). Sync traffic needs no
// obliviousness (blocks are public), only integrity.
type Syncer struct {
	node   *Node
	stores []*pager.Store
	// onCode, when non-nil, learns the length of each code blob just
	// checked against its hash.
	onCode func(types.Hash, uint32)
	// stats
	accounts, records, codePages uint64
}

// NewSyncer wires a node to the page stores it keeps; onCode may be
// nil.
func NewSyncer(n *Node, onCode func(types.Hash, uint32), stores ...*pager.Store) *Syncer {
	return &Syncer{node: n, stores: stores, onCode: onCode}
}

// SyncAccount fetches, verifies, and re-pages one account into every
// store: its meta page, all its storage records, and its code pages.
func (s *Syncer) SyncAccount(stateRoot types.Hash, addr types.Address) error {
	proof, err := s.node.ProveAccount(addr)
	if err != nil {
		return err
	}
	acct, err := VerifyAccountProof(stateRoot, proof)
	if err != nil {
		return fmt.Errorf("node: sync %s: %w", addr, err)
	}
	if acct == nil {
		return nil // absent account, nothing to page
	}

	// Code, authenticated by its hash.
	var codeLen uint32
	if acct.CodeHash != types.EmptyCodeHash && !acct.CodeHash.IsZero() {
		code := s.node.Code(acct.CodeHash)
		if types.Hash(keccak.Sum256(code)) != acct.CodeHash {
			return fmt.Errorf("node: sync %s: code hash mismatch", addr)
		}
		for _, st := range s.stores {
			if err := st.WriteCode(acct.CodeHash, code); err != nil {
				return err
			}
		}
		codeLen = uint32(len(code))
		s.codePages += uint64(pager.CodePages(codeLen))
		if s.onCode != nil {
			s.onCode(acct.CodeHash, codeLen)
		}
	}

	meta := &pager.AccountMeta{
		Balance:  acct.Balance.Clone(),
		Nonce:    acct.Nonce,
		CodeLen:  codeLen,
		CodeHash: acct.CodeHash,
	}
	for _, st := range s.stores {
		if err := st.WriteAccountMeta(addr, meta); err != nil {
			return err
		}
	}
	s.accounts++

	// Storage records, each verified against the account's storage
	// root before paging. The verified set is written through the
	// pager's batched path: group pages are fetched and rewritten in
	// bulk, so an account costs ~2 ORAM round trips instead of 2 per
	// record.
	keys := s.node.State().StorageKeys(addr)
	recs := make([]pager.StorageRecord, 0, len(keys))
	for _, slot := range keys {
		sp, err := s.node.ProveStorage(addr, slot)
		if err != nil {
			return err
		}
		if sp.Root != acct.StorageRoot {
			return fmt.Errorf("node: sync %s: storage root mismatch", addr)
		}
		val, err := VerifyStorageProof(acct.StorageRoot, sp)
		if err != nil {
			return fmt.Errorf("node: sync %s slot %s: %w", addr, slot, err)
		}
		recs = append(recs, pager.StorageRecord{Key: slot, Value: val})
	}
	for _, st := range s.stores {
		if err := st.WriteStorageRecords(addr, recs); err != nil {
			return err
		}
	}
	s.records += uint64(len(recs))
	return nil
}

// SyncAll re-pages the node's entire world state (the initial "full
// sync" of the paper's 1.1 TB state, at simulation scale).
func (s *Syncer) SyncAll() error {
	root := s.node.Head().Header.StateRoot
	for _, addr := range s.node.State().Addresses() {
		if err := s.SyncAccount(root, addr); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports (accounts, storage records, code pages) synced.
func (s *Syncer) Stats() (uint64, uint64, uint64) {
	return s.accounts, s.records, s.codePages
}
