package state

import (
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// Journal is the world-state access surface the EVM interpreter runs
// against: every read and write the interpreter loop performs goes
// through this interface instead of touching a concrete overlay. Two
// implementations exist:
//
//   - *Overlay, the plain journaled write layer (the baseline.Geth
//     oracle and node block execution run a whole bundle on one);
//   - *TxOverlay, the per-transaction layer the device's bundle
//     executor uses: an Overlay over a versioned view of the bundle
//     state that additionally records the transaction's read and write
//     sets for conflict detection and in-order commit.
//
// The split is what makes intra-bundle parallelism possible without
// the interpreter knowing: a speculative lane reads the bundle's base
// snapshot while recording exactly which values it consumed, and the
// committer checks those values against the committed prefix.
type Journal interface {
	// Account lifecycle and fields.
	Exists(addr types.Address) bool
	CreateAccount(addr types.Address)
	GetBalance(addr types.Address) *uint256.Int
	AddBalance(addr types.Address, amount *uint256.Int)
	SubBalance(addr types.Address, amount *uint256.Int)
	GetNonce(addr types.Address) uint64
	SetNonce(addr types.Address, nonce uint64)
	GetCodeHash(addr types.Address) types.Hash
	GetCode(addr types.Address) []byte
	GetCodeSize(addr types.Address) int
	SetCode(addr types.Address, code []byte)
	Selfdestruct(addr types.Address) bool
	HasSelfdestructed(addr types.Address) bool

	// Persistent and transient storage.
	GetStorage(addr types.Address, key types.Hash) types.Hash
	GetCommittedStorage(addr types.Address, key types.Hash) types.Hash
	SetStorage(addr types.Address, key, value types.Hash)
	GetTransient(addr types.Address, key types.Hash) types.Hash
	SetTransient(addr types.Address, key, value types.Hash)

	// Logs and the SSTORE refund counter.
	AddLog(log *types.Log)
	Logs() []*types.Log
	AddRefund(gas uint64)
	SubRefund(gas uint64)
	GetRefund() uint64

	// EIP-2929 warm/cold access lists.
	AddressWarm(addr types.Address) bool
	SlotWarm(addr types.Address, key types.Hash) bool

	// Snapshot/revert and per-transaction scoping.
	Snapshot() int
	RevertToSnapshot(snap int)
	BeginTx()
	FinaliseTx()
}

var _ Journal = (*Overlay)(nil)
