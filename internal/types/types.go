// Package types defines the core Ethereum data types shared across the
// HarDTAPE reproduction: addresses, hashes, accounts, transactions,
// blocks, bundles, and execution receipts.
package types

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"

	"hardtape/internal/keccak"
	"hardtape/internal/rlp"
	"hardtape/internal/secp256k1"
	"hardtape/internal/uint256"
)

// AddressLength is the length of an Ethereum address in bytes.
const AddressLength = 20

// HashLength is the length of a keccak256 hash in bytes.
const HashLength = 32

// Address is a 20-byte Ethereum account address.
type Address [AddressLength]byte

// Hash is a 32-byte keccak256 digest.
type Hash [HashLength]byte

// Parsing errors.
var (
	ErrBadAddress = errors.New("types: invalid address")
	ErrUnsigned   = errors.New("types: transaction is not signed")

	// ErrHighS rejects a signature with s > n/2: EIP-2 makes it
	// invalid, because (r, n-s) with V flipped is a second signature,
	// under a second hash, of the same transaction by the same sender.
	ErrHighS = fmt.Errorf("types: signature s above n/2 (EIP-2): %w", secp256k1.ErrInvalidSignature)
)

// HexToAddress parses a 0x-prefixed 40-hex-digit address.
func HexToAddress(s string) (Address, error) {
	var a Address
	if len(s) != 2+2*AddressLength || s[:2] != "0x" {
		return a, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	raw, err := hex.DecodeString(s[2:])
	if err != nil {
		return a, fmt.Errorf("%w: %v", ErrBadAddress, err)
	}
	copy(a[:], raw)
	return a, nil
}

// MustAddress is HexToAddress, panicking on error. For constants/tests.
func MustAddress(s string) Address {
	a, err := HexToAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

// BytesToAddress returns an address from the low-order 20 bytes of b.
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressLength {
		b = b[len(b)-AddressLength:]
	}
	copy(a[AddressLength-len(b):], b)
	return a
}

// String implements fmt.Stringer with a 0x prefix.
func (a Address) String() string {
	return "0x" + hex.EncodeToString(a[:])
}

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool {
	return a == Address{}
}

// Word returns the address left-padded to a 256-bit word.
func (a Address) Word() *uint256.Int {
	return new(uint256.Int).SetBytes(a[:])
}

// Hash returns the keccak256 of the address bytes (used as a secure
// trie key).
func (a Address) Hash() Hash {
	return Hash(keccak.Sum256(a[:]))
}

// BytesToHash returns a hash from the low-order 32 bytes of b.
func BytesToHash(b []byte) Hash {
	var h Hash
	if len(b) > HashLength {
		b = b[len(b)-HashLength:]
	}
	copy(h[HashLength-len(b):], b)
	return h
}

// String implements fmt.Stringer with a 0x prefix.
func (h Hash) String() string {
	return "0x" + hex.EncodeToString(h[:])
}

// IsZero reports whether h is all zeroes.
func (h Hash) IsZero() bool {
	return h == Hash{}
}

// Word returns the hash as a 256-bit word.
func (h Hash) Word() *uint256.Int {
	return new(uint256.Int).SetBytes(h[:])
}

// EmptyCodeHash is keccak256 of the empty byte string — the code hash
// of every externally owned account.
var EmptyCodeHash = Hash(keccak.Sum256(nil))

// Account is the four-field Ethereum account state.
type Account struct {
	Nonce       uint64
	Balance     *uint256.Int
	StorageRoot Hash
	CodeHash    Hash
}

// NewAccount returns an empty account with a zero balance and the
// empty code hash.
func NewAccount() *Account {
	return &Account{
		Balance:  new(uint256.Int),
		CodeHash: EmptyCodeHash,
	}
}

// Clone returns a deep copy of the account.
func (a *Account) Clone() *Account {
	return &Account{
		Nonce:       a.Nonce,
		Balance:     a.Balance.Clone(),
		StorageRoot: a.StorageRoot,
		CodeHash:    a.CodeHash,
	}
}

// EncodeRLP serializes the account in the canonical trie leaf format.
func (a *Account) EncodeRLP() []byte {
	return rlp.List(
		rlp.Uint(a.Nonce),
		rlp.String(a.Balance.Bytes()),
		rlp.String(a.StorageRoot[:]),
		rlp.String(a.CodeHash[:]),
	).Encode()
}

// DecodeAccountRLP parses the canonical account leaf encoding.
func DecodeAccountRLP(data []byte) (*Account, error) {
	item, err := rlp.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("types: account decode: %w", err)
	}
	fields, err := item.Children()
	if err != nil || len(fields) != 4 {
		return nil, fmt.Errorf("types: account must be a 4-field list")
	}
	nonce, err := fields[0].UintValue()
	if err != nil {
		return nil, fmt.Errorf("types: account nonce: %w", err)
	}
	balBytes, err := fields[1].Str()
	if err != nil {
		return nil, fmt.Errorf("types: account balance: %w", err)
	}
	rootBytes, err := fields[2].Str()
	if err != nil {
		return nil, fmt.Errorf("types: account storage root: %w", err)
	}
	codeBytes, err := fields[3].Str()
	if err != nil {
		return nil, fmt.Errorf("types: account code hash: %w", err)
	}
	return &Account{
		Nonce:       nonce,
		Balance:     new(uint256.Int).SetBytes(balBytes),
		StorageRoot: BytesToHash(rootBytes),
		CodeHash:    BytesToHash(codeBytes),
	}, nil
}

// Transaction is a legacy-format Ethereum transaction. To == nil means
// contract creation.
type Transaction struct {
	Nonce    uint64
	GasPrice *uint256.Int
	GasLimit uint64
	To       *Address
	Value    *uint256.Int
	Data     []byte

	// Signature values; nil R/S means unsigned.
	R, S *uint256.Int
	V    byte

	// cachedSender memoizes Sender() recovery.
	cachedSender *Address
}

// SigningHash returns the keccak256 of the RLP signing payload.
func (tx *Transaction) SigningHash() Hash {
	var to []byte
	if tx.To != nil {
		to = tx.To[:]
	}
	enc := rlp.List(
		rlp.Uint(tx.Nonce),
		rlp.String(tx.GasPrice.Bytes()),
		rlp.Uint(tx.GasLimit),
		rlp.String(to),
		rlp.String(tx.Value.Bytes()),
		rlp.String(tx.Data),
	).Encode()
	return Hash(keccak.Sum256(enc))
}

// Hash returns the transaction hash (over the signed payload).
func (tx *Transaction) Hash() Hash {
	var to []byte
	if tx.To != nil {
		to = tx.To[:]
	}
	var r, s []byte
	if tx.R != nil {
		r = tx.R.Bytes()
	}
	if tx.S != nil {
		s = tx.S.Bytes()
	}
	enc := rlp.List(
		rlp.Uint(tx.Nonce),
		rlp.String(tx.GasPrice.Bytes()),
		rlp.Uint(tx.GasLimit),
		rlp.String(to),
		rlp.String(tx.Value.Bytes()),
		rlp.String(tx.Data),
		rlp.Uint(uint64(tx.V)),
		rlp.String(r),
		rlp.String(s),
	).Encode()
	return Hash(keccak.Sum256(enc))
}

// Sign signs the transaction with the given key and caches the sender.
func (tx *Transaction) Sign(priv *secp256k1.PrivateKey) error {
	h := tx.SigningHash()
	sig, err := priv.Sign(h[:])
	if err != nil {
		return fmt.Errorf("types: sign transaction: %w", err)
	}
	tx.R, tx.S, tx.V = &sig.R, &sig.S, sig.V
	addr := Address(priv.Public.Address())
	tx.cachedSender = &addr
	return nil
}

// Sender recovers the transaction sender from the signature.
func (tx *Transaction) Sender() (Address, error) {
	if tx.cachedSender != nil {
		return *tx.cachedSender, nil
	}
	if tx.R == nil || tx.S == nil {
		return Address{}, ErrUnsigned
	}
	sig := &secp256k1.Signature{R: *tx.R, S: *tx.S, V: tx.V}
	if !sig.LowS() {
		return Address{}, ErrHighS
	}
	h := tx.SigningHash()
	pub, err := secp256k1.Recover(h[:], sig)
	if err != nil {
		return Address{}, fmt.Errorf("types: sender recovery: %w", err)
	}
	addr := Address(pub.Address())
	tx.cachedSender = &addr
	return addr, nil
}

// IsCreate reports whether the transaction creates a contract.
func (tx *Transaction) IsCreate() bool {
	return tx.To == nil
}

// Bundle is an ordered sequence of transactions to pre-execute against
// one world-state version. This is the unit of work a user submits.
type Bundle struct {
	// StateBlock pins the world-state version (block number) the bundle
	// simulates against.
	StateBlock uint64
	Txs        []*Transaction
}

// BlockHeader carries the consensus fields the EVM exposes plus the
// commitment roots.
type BlockHeader struct {
	ParentHash Hash
	Number     uint64
	Timestamp  uint64
	GasLimit   uint64
	Coinbase   Address
	StateRoot  Hash
	TxRoot     Hash
	BaseFee    *uint256.Int
	PrevRandao Hash
}

// Hash returns the keccak256 of the RLP-encoded header.
func (h *BlockHeader) Hash() Hash {
	enc := rlp.List(
		rlp.String(h.ParentHash[:]),
		rlp.Uint(h.Number),
		rlp.Uint(h.Timestamp),
		rlp.Uint(h.GasLimit),
		rlp.String(h.Coinbase[:]),
		rlp.String(h.StateRoot[:]),
		rlp.String(h.TxRoot[:]),
		rlp.String(h.BaseFee.Bytes()),
		rlp.String(h.PrevRandao[:]),
	).Encode()
	return Hash(keccak.Sum256(enc))
}

// Block is a header plus its transactions.
type Block struct {
	Header BlockHeader
	Txs    []*Transaction
}

// ComputeTxRoot returns a commitment over the block's transactions
// (keccak over the concatenated tx hashes; a simplification of the
// transaction trie documented in DESIGN.md §8).
func (b *Block) ComputeTxRoot() Hash {
	var buf bytes.Buffer
	for _, tx := range b.Txs {
		h := tx.Hash()
		buf.Write(h[:])
	}
	return Hash(keccak.Sum256(buf.Bytes()))
}

// Log is an EVM LOG event record.
type Log struct {
	Address Address
	Topics  []Hash
	Data    []byte
}

// StorageAccess records one storage read or write observed by a tracer.
// The slot address is public EVM state (named Slot, not Key, so it is
// not mistaken for key material).
type StorageAccess struct {
	Address Address
	Slot    Hash
	Value   Hash
	Write   bool
}

// CreateAddress computes the address of a contract created by sender
// with the given nonce: keccak256(rlp([sender, nonce]))[12:].
func CreateAddress(sender Address, nonce uint64) Address {
	enc := rlp.List(rlp.String(sender[:]), rlp.Uint(nonce)).Encode()
	h := keccak.Sum256(enc)
	return BytesToAddress(h[12:])
}

// Create2Address computes the EIP-1014 deterministic deployment
// address: keccak256(0xff ++ sender ++ salt ++ keccak256(code))[12:].
func Create2Address(sender Address, salt Hash, codeHash Hash) Address {
	var h [keccak.Size]byte
	keccak.HashInto(h[:], []byte{0xff}, sender[:], salt[:], codeHash[:])
	return BytesToAddress(h[12:])
}
