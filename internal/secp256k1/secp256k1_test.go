package secp256k1

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"hardtape/internal/keccak"
	"hardtape/internal/uint256"
)

func TestGeneratorOnCurve(t *testing.T) {
	if !onCurve(&_g.X, &_g.Y) {
		t.Fatal("generator not on curve")
	}
}

func TestKnownKeyAddress(t *testing.T) {
	// The canonical test key with D=1: its public key is G, and the
	// Ethereum address of G is a well-known constant.
	priv, err := NewPrivateKey(uint256.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if priv.Public != _g {
		t.Fatal("1*G != G")
	}
	addr := priv.Public.Address()
	want := "7e5f4552091a69125d5dfcb7b8c2659029395bdf"
	if hex.EncodeToString(addr[:]) != want {
		t.Errorf("address of key 1: got %x want %s", addr, want)
	}
}

func TestKnownScalarMult(t *testing.T) {
	// 2*G has a known x coordinate.
	priv, err := NewPrivateKey(uint256.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	wantX := uint256.MustFromHex("0xc6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5")
	if !priv.Public.X.Eq(wantX) {
		t.Errorf("2G.x = %s, want %s", priv.Public.X.Hex(), wantX.Hex())
	}
	if !onCurve(&priv.Public.X, &priv.Public.Y) {
		t.Error("2G not on curve")
	}
}

func TestInvalidKeys(t *testing.T) {
	minusOne := new(uint256.Int).Neg(uint256.NewInt(1))
	for _, d := range []*uint256.Int{nil, uint256.NewInt(0), minusOne, _n.Clone()} {
		if _, err := NewPrivateKey(d); err == nil {
			t.Errorf("NewPrivateKey(%v) should fail", d)
		}
	}
	if _, err := GenerateKey(nil); err == nil {
		t.Error("GenerateKey(nil) should fail")
	}
}

func TestSignVerify(t *testing.T) {
	priv, err := GenerateKey([]byte("test signer"))
	if err != nil {
		t.Fatal(err)
	}
	hash := keccak.Sum256([]byte("message"))
	sig, err := priv.Sign(hash[:])
	if err != nil {
		t.Fatal(err)
	}
	if !priv.Public.Verify(hash[:], sig) {
		t.Fatal("signature does not verify")
	}
	// Low-s is enforced.
	if sig.S.Gt(_halfN) || !sig.LowS() {
		t.Error("signature s is not low")
	}
	// Wrong hash must fail.
	other := keccak.Sum256([]byte("other"))
	if priv.Public.Verify(other[:], sig) {
		t.Error("signature verified against wrong hash")
	}
	// Tampered r must fail.
	bad := *sig
	bad.R.Add(&bad.R, uint256.NewInt(1))
	if priv.Public.Verify(hash[:], &bad) {
		t.Error("tampered signature verified")
	}
}

func TestSignDeterministic(t *testing.T) {
	priv, err := GenerateKey([]byte("determinism"))
	if err != nil {
		t.Fatal(err)
	}
	hash := keccak.Sum256([]byte("m"))
	s1, err := priv.Sign(hash[:])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := priv.Sign(hash[:])
	if err != nil {
		t.Fatal(err)
	}
	if *s1 != *s2 {
		t.Error("signing is not deterministic")
	}
}

func TestRecover(t *testing.T) {
	priv, err := GenerateKey([]byte("recover me"))
	if err != nil {
		t.Fatal(err)
	}
	hash := keccak.Sum256([]byte("tx payload"))
	sig, err := priv.Sign(hash[:])
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Recover(hash[:], sig)
	if err != nil {
		t.Fatal(err)
	}
	if *pub != priv.Public {
		t.Error("recovered wrong public key")
	}
	if pub.Address() != priv.Public.Address() {
		t.Error("recovered wrong address")
	}
	// Flipping V recovers a different key (or fails), never the right one.
	flipped := &Signature{R: sig.R, S: sig.S, V: sig.V ^ 1}
	if pub2, err := Recover(hash[:], flipped); err == nil {
		if pub2.Address() == priv.Public.Address() {
			t.Error("flipped V recovered same address")
		}
	}
	// The high-s twin (n-s, V flipped) recovers the same key: Recover
	// is ecrecover, and EIP-2's low-s rule is the caller's to apply.
	twin := &Signature{R: sig.R, V: sig.V ^ 1}
	twin.S.Sub(_n, &sig.S)
	if twin.LowS() {
		t.Fatal("n-s of a low s is low")
	}
	if pub3, err := Recover(hash[:], twin); err != nil || *pub3 != priv.Public {
		t.Errorf("high-s twin: %v", err)
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	hash := keccak.Sum256([]byte("x"))
	one := *uint256.NewInt(1)
	bad := []*Signature{
		nil,
		{R: uint256.Int{}, S: one, V: 0},
		{R: one, S: uint256.Int{}, V: 0},
		{R: *_n, S: one, V: 0},
		{R: one, S: *_n, V: 0},
		{R: one, S: one, V: 2},
	}
	for i, sig := range bad {
		if _, err := Recover(hash[:], sig); err == nil {
			t.Errorf("case %d: Recover accepted invalid signature", i)
		}
	}
	if _, err := Recover([]byte("short"), &Signature{R: one, S: one}); err == nil {
		t.Error("Recover accepted short hash")
	}
}

// sameJacobian reports whether a and b are the same point: x1·z2² =
// x2·z1² and y1·z2³ = y2·z1³, or both are infinity.
func sameJacobian(a, b *jacobian) bool {
	if a.z.IsZero() || b.z.IsZero() {
		return a.z.IsZero() && b.z.IsZero()
	}
	var z1z1, z2z2, l, r uint256.Int
	z1z1.MulMod(&a.z, &a.z, _p)
	z2z2.MulMod(&b.z, &b.z, _p)
	if !l.MulMod(&a.x, &z2z2, _p).Eq(r.MulMod(&b.x, &z1z1, _p)) {
		return false
	}
	l.MulMod(l.MulMod(&a.y, &z2z2, _p), &b.z, _p)
	r.MulMod(r.MulMod(&b.y, &z1z1, _p), &a.z, _p)
	return l.Eq(&r)
}

func TestJacobianIdentities(t *testing.T) {
	g := jacobian{x: _g.X, y: _g.Y, z: *uint256.NewInt(1)}
	// P + infinity = P, either way round.
	var sum jacobian
	if !sameJacobian(sum.add(&g, &jacobian{}), &g) || !sameJacobian(sum.add(&jacobian{}, &g), &g) {
		t.Error("G + inf != G")
	}
	// P + P = 2P = double(P), also when the result aliases an input.
	var dbl jacobian
	dbl.double(&g)
	if !sameJacobian(sum.add(&g, &g), &dbl) {
		t.Error("P+P != double(P)")
	}
	if alias := g; !sameJacobian(alias.add(&alias, &g), &dbl) {
		t.Error("aliased P+P != double(P)")
	}
	// 2P + P, with 2P off z = 1, is 3P.
	three, _ := mulAdd(uint256.NewInt(3), &_g, new(uint256.Int))
	if !sameJacobian(sum.add(&dbl, &g), &jacobian{x: three.X, y: three.Y, z: g.z}) {
		t.Error("2P + P != 3P")
	}
	// P + (-P) = infinity.
	neg := g
	neg.y.Sub(_p, &g.y)
	if !sum.add(&g, &neg).z.IsZero() {
		t.Error("P + (-P) != infinity")
	}
	// n*G = infinity, and so is n·G + 0·Q and (n-1)·G + 1·G.
	if _, ok := mulAdd(_n, &_g, new(uint256.Int)); ok {
		t.Error("n*G != infinity")
	}
	nMinus1 := new(uint256.Int).Sub(_n, uint256.NewInt(1))
	if _, ok := mulAdd(nMinus1, &_g, uint256.NewInt(1)); ok {
		t.Error("(n-1)G + G != infinity")
	}
	// 0·G + 1·Q = Q.
	if q, ok := mulAdd(new(uint256.Int), &three, uint256.NewInt(1)); !ok || q != three {
		t.Error("0·G + 1·Q != Q")
	}
}

// Property: sign/recover round-trips for arbitrary seeds and messages.
func TestQuickSignRecover(t *testing.T) {
	f := func(seed, msg []byte) bool {
		if len(seed) == 0 {
			return true
		}
		priv, err := GenerateKey(seed)
		if err != nil {
			return false
		}
		hash := keccak.Sum256(msg)
		sig, err := priv.Sign(hash[:])
		if err != nil {
			return false
		}
		if !priv.Public.Verify(hash[:], sig) {
			return false
		}
		pub, err := Recover(hash[:], sig)
		if err != nil {
			return false
		}
		return pub.Address() == priv.Public.Address()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Recover allocates only the key it returns: the field arithmetic runs
// on stack uint256 values.
func TestRecoverAllocs(t *testing.T) {
	priv, err := GenerateKey([]byte("allocs"))
	if err != nil {
		t.Fatal(err)
	}
	hash := keccak.Sum256([]byte("payload"))
	sig, err := priv.Sign(hash[:])
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Recover(hash[:], sig); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Recover: %.0f allocs/op, want <= 2", allocs)
	}
}

func BenchmarkSign(b *testing.B) {
	priv, err := GenerateKey([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	hash := keccak.Sum256([]byte("payload"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := priv.Sign(hash[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecover(b *testing.B) {
	priv, err := GenerateKey([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	hash := keccak.Sum256([]byte("payload"))
	sig, err := priv.Sign(hash[:])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Recover(hash[:], sig); err != nil {
			b.Fatal(err)
		}
	}
}
