// Package node simulates the Ethereum full node of the paper's use
// case: it holds the canonical chain and world state, executes new
// blocks, and serves world-state data with Merkle proofs (workflow
// step 11, attack A6). Its Syncer is the verifying half of a sync: it
// checks every account, code blob and storage record against the
// head's state root and hands the verified state to the device, which
// rebuilds its page stores from it.
package node

import (
	"errors"
	"fmt"
	"sync"

	"hardtape/internal/evm"
	"hardtape/internal/mpt"
	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// Errors.
var (
	ErrUnknownBlock = errors.New("node: unknown block")
	ErrBadBlock     = errors.New("node: block validation failed")
	ErrNoAccount    = errors.New("node: account not found")
)

// Node is a simulated full node. It is safe for concurrent reads; block
// import is serialized internally.
type Node struct {
	mu     sync.RWMutex
	state  *state.WorldState
	blocks []*types.Block
	byHash map[types.Hash]*types.Block
	// roots[i] is the state root after executing block i.
	roots []types.Hash
}

// New creates a node over a genesis world state (block 0 is implicit).
func New(genesis *state.WorldState) (*Node, error) {
	root, err := genesis.Root()
	if err != nil {
		return nil, fmt.Errorf("node: genesis root: %w", err)
	}
	genesisBlock := &types.Block{
		Header: types.BlockHeader{
			Number:    0,
			StateRoot: root,
			BaseFee:   uint256.NewInt(1),
		},
	}
	n := &Node{
		state:  genesis,
		blocks: []*types.Block{genesisBlock},
		byHash: map[types.Hash]*types.Block{genesisBlock.Header.Hash(): genesisBlock},
		roots:  []types.Hash{root},
	}
	return n, nil
}

// State exposes the node's world state (the pre-executor's backing
// Reader for locally-prefetched configurations).
func (n *Node) State() *state.WorldState { return n.state }

// Head returns the latest block.
func (n *Node) Head() *types.Block {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.blocks[len(n.blocks)-1]
}

// BlockByNumber returns a block by height.
func (n *Node) BlockByNumber(num uint64) (*types.Block, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if num >= uint64(len(n.blocks)) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, num)
	}
	return n.blocks[num], nil
}

// BlockHash returns the hash of a block by height (for BLOCKHASH).
func (n *Node) BlockHash(num uint64) types.Hash {
	blk, err := n.BlockByNumber(num)
	if err != nil {
		return types.Hash{}
	}
	return blk.Header.Hash()
}

// ImportBlock executes a block against the canonical state and appends
// it to the chain. It verifies the transaction root and parent linkage,
// fills in the resulting state root, and rejects blocks whose
// transactions fail validation.
//
//hardtape:locksafe-ok block application mutates local state only; ApplyTransaction here does no I/O and n.mu must cover the whole commit to stay atomic
func (n *Node) ImportBlock(blk *types.Block) error {
	n.mu.Lock()
	defer n.mu.Unlock()

	head := n.blocks[len(n.blocks)-1]
	if blk.Header.Number != head.Header.Number+1 {
		return fmt.Errorf("%w: number %d after %d", ErrBadBlock, blk.Header.Number, head.Header.Number)
	}
	if blk.Header.TxRoot != blk.ComputeTxRoot() {
		return fmt.Errorf("%w: tx root mismatch", ErrBadBlock)
	}

	// Execute on an overlay, then commit to the canonical state.
	overlay := state.NewOverlay(n.state)
	e := evm.New(evm.BlockContext{
		Coinbase:   blk.Header.Coinbase,
		Number:     blk.Header.Number,
		Timestamp:  blk.Header.Timestamp,
		GasLimit:   blk.Header.GasLimit,
		BaseFee:    baseFeeOf(blk),
		ChainID:    uint256.NewInt(1),
		PrevRandao: blk.Header.PrevRandao,
		BlockHash:  n.blockHashLocked,
	}, overlay)
	for i, tx := range blk.Txs {
		if _, err := e.ApplyTransaction(tx); err != nil {
			return fmt.Errorf("%w: tx %d: %v", ErrBadBlock, i, err)
		}
	}
	if err := commitOverlay(n.state, overlay, blk.Txs); err != nil {
		return fmt.Errorf("node: commit: %w", err)
	}
	root, err := n.state.Root()
	if err != nil {
		return fmt.Errorf("node: state root: %w", err)
	}
	blk.Header.ParentHash = head.Header.Hash()
	blk.Header.StateRoot = root

	n.blocks = append(n.blocks, blk)
	n.byHash[blk.Header.Hash()] = blk
	n.roots = append(n.roots, root)
	return nil
}

// blockHashLocked resolves BLOCKHASH during import (mu already held).
func (n *Node) blockHashLocked(num uint64) types.Hash {
	if num >= uint64(len(n.blocks)) {
		return types.Hash{}
	}
	return n.blocks[num].Header.Hash()
}

func baseFeeOf(blk *types.Block) *uint256.Int {
	if blk.Header.BaseFee == nil {
		return uint256.NewInt(1)
	}
	return blk.Header.BaseFee.Clone()
}

// commitOverlay writes an executed overlay back into the canonical
// world state. Touched accounts are discovered through the
// transactions and the overlay's dirty sets.
func commitOverlay(ws *state.WorldState, o *state.Overlay, txs []*types.Transaction) error {
	touched := make(map[types.Address]struct{})
	for _, tx := range txs {
		sender, err := tx.Sender()
		if err != nil {
			return err
		}
		touched[sender] = struct{}{}
		if tx.To != nil {
			touched[*tx.To] = struct{}{}
		}
	}
	for _, w := range o.StorageWrites() {
		touched[w.Address] = struct{}{}
	}
	for _, addr := range o.TouchedAccounts() {
		touched[addr] = struct{}{}
	}
	for addr := range touched {
		if !o.Exists(addr) {
			ws.DeleteAccount(addr)
			continue
		}
		acct := types.NewAccount()
		acct.Nonce = o.GetNonce(addr)
		acct.Balance = o.GetBalance(addr)
		if code := o.GetCode(addr); len(code) > 0 {
			acct.CodeHash = ws.SetCode(code)
		} else {
			acct.CodeHash = o.GetCodeHash(addr)
			if acct.CodeHash.IsZero() {
				acct.CodeHash = types.EmptyCodeHash
			}
		}
		if err := ws.SetAccount(addr, acct); err != nil {
			return err
		}
	}
	for _, w := range o.StorageWrites() {
		if err := ws.SetStorage(w.Address, w.Slot, w.Value); err != nil {
			return err
		}
	}
	return nil
}

// AccountProof is an authenticated account record.
type AccountProof struct {
	Address types.Address
	Account *types.Account // nil if absent
	Proof   *mpt.Proof
	Root    types.Hash
}

// ProveAccount produces the Merkle-proof response a pre-executor
// verifies during sync.
func (n *Node) ProveAccount(addr types.Address) (*AccountProof, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	proof, err := n.state.ProveAccount(addr)
	if err != nil {
		return nil, fmt.Errorf("node: prove account: %w", err)
	}
	out := &AccountProof{Address: addr, Proof: proof, Root: n.roots[len(n.roots)-1]}
	if acct, ok := n.state.Account(addr); ok {
		out.Account = acct
	}
	return out, nil
}

// StorageProof is an authenticated storage record.
type StorageProof struct {
	Address types.Address
	Key     types.Hash
	Value   types.Hash
	Proof   *mpt.Proof
	// Root is the account's storage root the proof verifies against.
	Root types.Hash
}

// ProveStorage produces an authenticated storage record.
func (n *Node) ProveStorage(addr types.Address, key types.Hash) (*StorageProof, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	acct, ok := n.state.Account(addr)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoAccount, addr)
	}
	proof, err := n.state.ProveStorage(addr, key)
	if err != nil {
		return nil, fmt.Errorf("node: prove storage: %w", err)
	}
	return &StorageProof{
		Address: addr,
		Key:     key,
		Value:   n.state.Storage(addr, key),
		Proof:   proof,
		Root:    acct.StorageRoot,
	}, nil
}

// Code returns contract code by hash (code is verified against the
// account's code hash by the syncer, so no separate proof is needed).
func (n *Node) Code(codeHash types.Hash) []byte {
	return n.state.Code(codeHash)
}

// VerifyAccountProof checks an account proof against a state root.
func VerifyAccountProof(root types.Hash, p *AccountProof) (*types.Account, error) {
	val, err := mpt.VerifySecureProof(root, p.Address[:], p.Proof)
	if err != nil {
		return nil, fmt.Errorf("node: account proof: %w", err)
	}
	if val == nil {
		if p.Account != nil {
			return nil, fmt.Errorf("%w: claimed account proven absent", mpt.ErrBadProof)
		}
		return nil, nil
	}
	acct, err := types.DecodeAccountRLP(val)
	if err != nil {
		return nil, fmt.Errorf("node: account proof decode: %w", err)
	}
	return acct, nil
}

// VerifyStorageProof checks a storage proof against a storage root.
func VerifyStorageProof(storageRoot types.Hash, p *StorageProof) (types.Hash, error) {
	val, err := mpt.VerifySecureProof(storageRoot, p.Key[:], p.Proof)
	if err != nil {
		return types.Hash{}, fmt.Errorf("node: storage proof: %w", err)
	}
	return types.BytesToHash(val), nil
}
