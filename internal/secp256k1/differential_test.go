package secp256k1_test

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"hardtape/internal/keccak"
	"hardtape/internal/secp256k1"
	"hardtape/internal/uint256"
)

// The uint256 implementation is checked against the math/big oracle in
// oracle_test.go, whose package-level names (GenerateKey, Recover,
// scalarBaseMult, ...) are the oracle's; the package under test is
// always qualified.

// Sign must return the oracle's (R, S, V) byte for byte, so transaction
// hashes, traces and the modeled golden file cannot move.
func TestSignMatchesOracle(t *testing.T) {
	for i := 0; i < 200; i++ {
		seed := []byte(fmt.Sprintf("oracle-key-%d", i))
		hash := keccak.Sum256([]byte(fmt.Sprintf("oracle-msg-%d", i)))
		priv, err := secp256k1.GenerateKey(seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := GenerateKey(seed)
		if err != nil {
			t.Fatal(err)
		}
		if priv.D.ToBig().Cmp(ref.D) != 0 || priv.Public.Bytes() != ref.Public.Bytes() {
			t.Fatalf("key %d differs from the oracle", i)
		}
		sig, err := priv.Sign(hash[:])
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Sign(hash[:])
		if err != nil {
			t.Fatal(err)
		}
		if sig.R.ToBig().Cmp(want.R) != 0 || sig.S.ToBig().Cmp(want.S) != 0 || sig.V != want.V {
			t.Fatalf("key %d: signature differs from the oracle", i)
		}
	}
}

// Property: scalar multiplication distributes over addition, and agrees
// with the oracle: a·G + b·G (one Strauss–Shamir chain) is the oracle's
// (a+b)·G and its aG + bG, for arbitrary 256-bit a and b.
func TestQuickScalarDistributive(t *testing.T) {
	g := secp256k1.PublicKey{X: *uint256.MustFromBig(_gx), Y: *uint256.MustFromBig(_gy)}
	f := func(a, b uint256.Int) bool {
		sum, ok := secp256k1.MulAdd(&a, &g, &b)
		x1, y1 := scalarBaseMult(new(big.Int).Add(a.ToBig(), b.ToBig()))
		ax, ay, az := scalarMultJacobian(_gx, _gy, a.ToBig())
		bx, by, bz := scalarMultJacobian(_gx, _gy, b.ToBig())
		x2, y2 := toAffine(addJacobian(ax, ay, az, bx, by, bz))
		return ok && sum.X.ToBig().Cmp(x1) == 0 && sum.Y.ToBig().Cmp(y1) == 0 &&
			x1.Cmp(x2) == 0 && y1.Cmp(y2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzRecoverDifferential: for any (hash, r, s, v), Recover and the
// oracle return the same error, or the same key. The committed seeds
// under testdata/fuzz cover a valid signature, its high-s twin, r = 0,
// r = n, an r whose r³+7 has no square root, and V = 2.
func FuzzRecoverDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, hash, r, s []byte, v byte) {
		if len(r) > 32 || len(s) > 32 {
			return // SetBytes keeps the low 32 bytes; big.Int keeps all
		}
		sig := &secp256k1.Signature{V: v}
		sig.R.SetBytes(r)
		sig.S.SetBytes(s)
		got, gotErr := secp256k1.Recover(hash, sig)
		want, wantErr := Recover(hash, &Signature{R: new(big.Int).SetBytes(r), S: new(big.Int).SetBytes(s), V: v})
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("Recover error %v, oracle %v", gotErr, wantErr)
		}
		if gotErr == nil && got.Bytes() != want.Bytes() {
			t.Fatalf("Recover = %x, oracle %x", got.Bytes(), want.Bytes())
		}
	})
}
