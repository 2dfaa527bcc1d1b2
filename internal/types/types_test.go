package types

import (
	"errors"
	"testing"
	"testing/quick"

	"hardtape/internal/keccak"
	"hardtape/internal/secp256k1"
	"hardtape/internal/uint256"
)

func TestAddressParsing(t *testing.T) {
	a, err := HexToAddress("0x00112233445566778899aabbccddeeff00112233")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "0x00112233445566778899aabbccddeeff00112233" {
		t.Errorf("round trip: %s", a)
	}
	for _, bad := range []string{"", "0x", "0x1234", "00112233445566778899aabbccddeeff00112233", "0xzz112233445566778899aabbccddeeff00112233"} {
		if _, err := HexToAddress(bad); !errors.Is(err, ErrBadAddress) {
			t.Errorf("HexToAddress(%q) should fail with ErrBadAddress, got %v", bad, err)
		}
	}
}

func TestBytesToAddressPadding(t *testing.T) {
	a := BytesToAddress([]byte{0x01})
	if a[19] != 0x01 || a[0] != 0 {
		t.Errorf("short input should right-align: %s", a)
	}
	long := make([]byte, 32)
	long[31] = 0x7f
	a = BytesToAddress(long)
	if a[19] != 0x7f {
		t.Errorf("long input should keep low bytes: %s", a)
	}
	if !(Address{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestHashParsing(t *testing.T) {
	long := make([]byte, HashLength+1)
	long[0], long[1], long[HashLength] = 0xee, 0x11, 0x7f
	h := BytesToHash(long)
	if h[0] != 0x11 || h[HashLength-1] != 0x7f {
		t.Errorf("long input should keep the low 32 bytes: %s", h)
	}
	if short := BytesToHash([]byte{0x05}); short[HashLength-1] != 0x05 || !BytesToHash(nil).IsZero() {
		t.Errorf("short input should left-pad: %s", short)
	}
	if !h.Word().Eq(new(uint256.Int).SetBytes(h[:])) {
		t.Error("Word mismatch")
	}
}

func TestEmptyCodeHash(t *testing.T) {
	// Well-known constant: keccak256("").
	want := "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
	if EmptyCodeHash.String() != want {
		t.Errorf("EmptyCodeHash = %s, want %s", EmptyCodeHash, want)
	}
}

func TestAccountRLPRoundTrip(t *testing.T) {
	acct := &Account{
		Nonce:       42,
		Balance:     uint256.NewInt(1_000_000),
		StorageRoot: BytesToHash([]byte{0x01}),
		CodeHash:    EmptyCodeHash,
	}
	enc := acct.EncodeRLP()
	back, err := DecodeAccountRLP(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nonce != 42 || !back.Balance.Eq(acct.Balance) ||
		back.StorageRoot != acct.StorageRoot || back.CodeHash != acct.CodeHash {
		t.Errorf("round trip mismatch: %+v", back)
	}
}

func TestAccountDecodeErrors(t *testing.T) {
	if _, err := DecodeAccountRLP([]byte{0xff, 0x00}); err == nil {
		t.Error("garbage should fail")
	}
	// A 3-field list is not an account.
	short := &Account{Nonce: 1, Balance: uint256.NewInt(1), CodeHash: EmptyCodeHash}
	enc := short.EncodeRLP()
	if _, err := DecodeAccountRLP(enc[:len(enc)-1]); err == nil {
		t.Error("truncated should fail")
	}
}

func TestAccountEmptyAndClone(t *testing.T) {
	a := NewAccount()
	if a.Nonce != 0 || !a.Balance.IsZero() || a.CodeHash != EmptyCodeHash {
		t.Error("new account should be empty (EIP-161)")
	}
	a.Balance.SetUint64(5)
	c := a.Clone()
	c.Balance.SetUint64(9)
	if a.Balance.Uint64() != 5 {
		t.Error("Clone must deep-copy balance")
	}
}

func TestTransactionSignSender(t *testing.T) {
	priv, err := secp256k1.GenerateKey([]byte("alice"))
	if err != nil {
		t.Fatal(err)
	}
	to := MustAddress("0x1111111111111111111111111111111111111111")
	tx := &Transaction{
		Nonce:    7,
		GasPrice: uint256.NewInt(1),
		GasLimit: 21000,
		To:       &to,
		Value:    uint256.NewInt(100),
		Data:     []byte{0x01, 0x02},
	}
	if _, err := tx.Sender(); !errors.Is(err, ErrUnsigned) {
		t.Error("unsigned tx Sender should fail with ErrUnsigned")
	}
	if err := tx.Sign(priv); err != nil {
		t.Fatal(err)
	}
	sender, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if sender != Address(priv.Public.Address()) {
		t.Errorf("sender = %s", sender)
	}

	// Recovery (not just the cache) must work: clear the cache by
	// copying the tx value.
	cp := *tx
	cp.cachedSender = nil
	sender2, err := cp.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if sender2 != sender {
		t.Error("recovered sender differs from cached sender")
	}
}

// EIP-2: (r, n-s) with V flipped is a valid ECDSA signature of the same
// payload by the same key, under a different transaction hash. Sender
// must reject it, as a post-Homestead node does.
func TestSenderRejectsHighS(t *testing.T) {
	priv, err := secp256k1.GenerateKey([]byte("malleable"))
	if err != nil {
		t.Fatal(err)
	}
	to := MustAddress("0x1111111111111111111111111111111111111111")
	tx := &Transaction{Nonce: 3, GasPrice: uint256.NewInt(1), GasLimit: 21000, To: &to, Value: uint256.NewInt(1)}
	if err := tx.Sign(priv); err != nil {
		t.Fatal(err)
	}
	n := uint256.MustFromHex("0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	twin := *tx
	twin.cachedSender = nil
	twin.S = new(uint256.Int).Sub(n, tx.S)
	twin.V ^= 1
	if twin.Hash() == tx.Hash() {
		t.Fatal("high-s twin has the same hash")
	}
	_, err = twin.Sender()
	if !errors.Is(err, ErrHighS) || !errors.Is(err, secp256k1.ErrInvalidSignature) {
		t.Fatalf("high-s Sender: %v, want ErrHighS wrapping ErrInvalidSignature", err)
	}
	// The twin is a real signature: ecrecover itself accepts it.
	sig := &secp256k1.Signature{R: *twin.R, S: *twin.S, V: twin.V}
	h := twin.SigningHash()
	if pub, err := secp256k1.Recover(h[:], sig); err != nil || pub.Address() != priv.Public.Address() {
		t.Fatalf("high-s twin does not recover the signer: %v", err)
	}
}

func TestTransactionHashesDiffer(t *testing.T) {
	to := MustAddress("0x2222222222222222222222222222222222222222")
	tx1 := &Transaction{Nonce: 1, GasPrice: uint256.NewInt(1), GasLimit: 21000, To: &to, Value: uint256.NewInt(5)}
	tx2 := &Transaction{Nonce: 2, GasPrice: uint256.NewInt(1), GasLimit: 21000, To: &to, Value: uint256.NewInt(5)}
	if tx1.SigningHash() == tx2.SigningHash() {
		t.Error("different nonces must hash differently")
	}
	create := &Transaction{Nonce: 1, GasPrice: uint256.NewInt(1), GasLimit: 21000, Value: uint256.NewInt(5)}
	if !create.IsCreate() || tx1.IsCreate() {
		t.Error("IsCreate wrong")
	}
	if tx1.SigningHash() == create.SigningHash() {
		t.Error("create vs call must hash differently")
	}
}

func TestBlockHeaderHash(t *testing.T) {
	h1 := &BlockHeader{Number: 1, BaseFee: uint256.NewInt(7)}
	h2 := &BlockHeader{Number: 2, BaseFee: uint256.NewInt(7)}
	if h1.Hash() == h2.Hash() {
		t.Error("different headers must hash differently")
	}
	if h1.Hash() != h1.Hash() {
		t.Error("hashing must be deterministic")
	}
}

func TestComputeTxRoot(t *testing.T) {
	to := MustAddress("0x3333333333333333333333333333333333333333")
	mk := func(n uint64) *Transaction {
		return &Transaction{Nonce: n, GasPrice: uint256.NewInt(1), GasLimit: 21000, To: &to, Value: new(uint256.Int)}
	}
	b1 := &Block{Txs: []*Transaction{mk(1), mk(2)}}
	b2 := &Block{Txs: []*Transaction{mk(2), mk(1)}}
	if b1.ComputeTxRoot() == b2.ComputeTxRoot() {
		t.Error("tx root must be order-sensitive")
	}
}

func TestCreateAddress(t *testing.T) {
	// Known vector: address created by 0x00...00 with nonce 0.
	sender := MustAddress("0x0000000000000000000000000000000000000000")
	got := CreateAddress(sender, 0)
	want := MustAddress("0xbd770416a3345f91e4b34576cb804a576fa48eb1")
	if got != want {
		t.Errorf("CreateAddress = %s, want %s", got, want)
	}
	if CreateAddress(sender, 1) == got {
		t.Error("nonce must change the address")
	}
}

func TestCreate2Address(t *testing.T) {
	// EIP-1014 example 1: deployer 0x00...00, salt 0, code 0x00.
	sender := MustAddress("0x0000000000000000000000000000000000000000")
	var salt Hash
	codeHash := Hash(keccak.Sum256([]byte{0x00}))
	got := Create2Address(sender, salt, codeHash)
	want := MustAddress("0x4d1a2e2bb4f88f0250f26ffff098b0b30b26bf38")
	if got != want {
		t.Errorf("Create2Address = %s, want %s", got, want)
	}
}

func TestQuickAddressWordRoundTrip(t *testing.T) {
	f := func(raw [20]byte) bool {
		a := Address(raw)
		w := a.Word()
		b := w.Bytes32()
		return BytesToAddress(b[:]) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickAccountRLPRoundTrip(t *testing.T) {
	f := func(nonce uint64, bal [32]byte, root, code [32]byte) bool {
		acct := &Account{
			Nonce:       nonce,
			Balance:     new(uint256.Int).SetBytes(bal[:]),
			StorageRoot: Hash(root),
			CodeHash:    Hash(code),
		}
		back, err := DecodeAccountRLP(acct.EncodeRLP())
		if err != nil {
			return false
		}
		return back.Nonce == acct.Nonce && back.Balance.Eq(acct.Balance) &&
			back.StorageRoot == acct.StorageRoot && back.CodeHash == acct.CodeHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTxHashInjective(t *testing.T) {
	f := func(n1, n2 uint64, data []byte) bool {
		to := MustAddress("0x4444444444444444444444444444444444444444")
		tx1 := &Transaction{Nonce: n1, GasPrice: uint256.NewInt(1), GasLimit: 1, To: &to, Value: new(uint256.Int), Data: data}
		tx2 := &Transaction{Nonce: n2, GasPrice: uint256.NewInt(1), GasLimit: 1, To: &to, Value: new(uint256.Int), Data: data}
		if n1 == n2 {
			return tx1.SigningHash() == tx2.SigningHash()
		}
		return tx1.SigningHash() != tx2.SigningHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
