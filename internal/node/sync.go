package node

import (
	"fmt"

	"hardtape/internal/keccak"
	"hardtape/internal/pager"
	"hardtape/internal/types"
)

// Syncer is the verifying half of workflow step 11: after new blocks
// execute, the world state is pulled from the (untrusted) Node with
// Merkle proofs and checked on the trusted side once. It writes
// nothing: the pre-executor pages what it returns into the stores that
// serve each page. Sync traffic needs no obliviousness (blocks are
// public), only integrity.
type Syncer struct {
	node *Node
}

// NewSyncer wires a syncer to the node it verifies.
func NewSyncer(n *Node) *Syncer {
	return &Syncer{node: n}
}

// Account is one account's state as proven against a state root, in
// the pager's terms: its meta page's fields, its code (checked against
// the code hash; nil for an account without code) and its full storage
// record set.
type Account struct {
	Addr    types.Address
	Meta    pager.AccountMeta
	Code    []byte
	Storage []pager.StorageRecord
}

// VerifyAccount fetches and verifies one account: its proof against
// stateRoot, its code against its code hash and every storage record
// against its storage root. An account the proof shows absent is nil.
func (s *Syncer) VerifyAccount(stateRoot types.Hash, addr types.Address) (*Account, error) {
	proof, err := s.node.ProveAccount(addr)
	if err != nil {
		return nil, err
	}
	acct, err := VerifyAccountProof(stateRoot, proof)
	if err != nil {
		return nil, fmt.Errorf("node: sync %s: %w", addr, err)
	}
	if acct == nil {
		return nil, nil
	}
	out := &Account{
		Addr: addr,
		Meta: pager.AccountMeta{Balance: acct.Balance.Clone(), Nonce: acct.Nonce, CodeHash: acct.CodeHash},
	}
	if acct.CodeHash != types.EmptyCodeHash && !acct.CodeHash.IsZero() {
		code := s.node.Code(acct.CodeHash)
		if types.Hash(keccak.Sum256(code)) != acct.CodeHash {
			return nil, fmt.Errorf("node: sync %s: code hash mismatch", addr)
		}
		out.Code = code
		out.Meta.CodeLen = uint32(len(code))
	}
	keys := s.node.State().StorageKeys(addr)
	out.Storage = make([]pager.StorageRecord, 0, len(keys))
	for _, slot := range keys {
		sp, err := s.node.ProveStorage(addr, slot)
		if err != nil {
			return nil, err
		}
		if sp.Root != acct.StorageRoot {
			return nil, fmt.Errorf("node: sync %s: storage root mismatch", addr)
		}
		val, err := VerifyStorageProof(acct.StorageRoot, sp)
		if err != nil {
			return nil, fmt.Errorf("node: sync %s slot %s: %w", addr, slot, err)
		}
		out.Storage = append(out.Storage, pager.StorageRecord{Key: slot, Value: val})
	}
	return out, nil
}

// VerifyAll verifies the node's entire world state at its head (the
// initial "full sync" of the paper's 1.1 TB state, at simulation
// scale) and returns every present account. It fails on the first
// account that does not verify, before the caller has written anything.
func (s *Syncer) VerifyAll() ([]*Account, error) {
	root := s.node.Head().Header.StateRoot
	addrs := s.node.State().Addresses()
	out := make([]*Account, 0, len(addrs))
	for _, addr := range addrs {
		acct, err := s.VerifyAccount(root, addr)
		if err != nil {
			return nil, err
		}
		if acct != nil {
			out = append(out, acct)
		}
	}
	return out, nil
}
