// This file is the former math/big implementation of the package,
// kept verbatim below the package clause as the differential oracle
// for the uint256 implementation: a straightforward big.Int Jacobian
// double-and-add whose every step can be read against the textbook
// formulas. It lives in the external test package so its names
// (PrivateKey, Recover, ...) do not clash with the package's own.
package secp256k1_test

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"

	"hardtape/internal/keccak"
)

// Curve parameters for secp256k1: y^2 = x^3 + 7 over F_p.
var (
	_p  = mustHexBig("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
	_n  = mustHexBig("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	_gx = mustHexBig("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
	_gy = mustHexBig("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
	_b  = big.NewInt(7)

	// _halfN is used to enforce low-s signatures (EIP-2).
	_halfN = new(big.Int).Rsh(_n, 1)
)

// Errors returned by signature operations.
var (
	ErrInvalidKey       = errors.New("secp256k1: invalid private key")
	ErrInvalidSignature = errors.New("secp256k1: invalid signature")
	ErrRecoveryFailed   = errors.New("secp256k1: public key recovery failed")
)

func mustHexBig(s string) *big.Int {
	b, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("secp256k1: bad hex constant " + s)
	}
	return b
}

// PrivateKey is a secp256k1 private scalar with its public point.
type PrivateKey struct {
	D      *big.Int
	Public PublicKey
}

// PublicKey is a point on the curve in affine coordinates.
type PublicKey struct {
	X, Y *big.Int
}

// Signature is an ECDSA signature with a recovery id V in {0, 1}.
type Signature struct {
	R, S *big.Int
	V    byte
}

// GenerateKey derives a private key deterministically from seed bytes
// (hashed and reduced mod n). A zero-scalar result is remapped to 1.
func GenerateKey(seed []byte) (*PrivateKey, error) {
	if len(seed) == 0 {
		return nil, fmt.Errorf("%w: empty seed", ErrInvalidKey)
	}
	h := keccak.Sum256(seed)
	d := new(big.Int).SetBytes(h[:])
	d.Mod(d, _n)
	if d.Sign() == 0 {
		d.SetInt64(1)
	}
	return NewPrivateKey(d)
}

// NewPrivateKey wraps an existing scalar, validating 0 < d < n.
func NewPrivateKey(d *big.Int) (*PrivateKey, error) {
	if d == nil || d.Sign() <= 0 || d.Cmp(_n) >= 0 {
		return nil, ErrInvalidKey
	}
	x, y := scalarBaseMult(d)
	return &PrivateKey{
		D:      new(big.Int).Set(d),
		Public: PublicKey{X: x, Y: y},
	}, nil
}

// Address returns the Ethereum address of the public key: the low 20
// bytes of keccak256(X || Y) with 32-byte big-endian coordinates.
func (pub *PublicKey) Address() [20]byte {
	var buf [64]byte
	pub.X.FillBytes(buf[:32])
	pub.Y.FillBytes(buf[32:])
	h := keccak.Sum256(buf[:])
	var addr [20]byte
	copy(addr[:], h[12:])
	return addr
}

// Bytes returns the uncompressed 64-byte X||Y encoding.
func (pub *PublicKey) Bytes() [64]byte {
	var buf [64]byte
	pub.X.FillBytes(buf[:32])
	pub.Y.FillBytes(buf[32:])
	return buf
}

// onCurve reports whether (x, y) satisfies the curve equation.
func onCurve(x, y *big.Int) bool {
	if x.Sign() < 0 || x.Cmp(_p) >= 0 || y.Sign() < 0 || y.Cmp(_p) >= 0 {
		return false
	}
	y2 := new(big.Int).Mul(y, y)
	y2.Mod(y2, _p)
	rhs := new(big.Int).Mul(x, x)
	rhs.Mul(rhs, x)
	rhs.Add(rhs, _b)
	rhs.Mod(rhs, _p)
	return y2.Cmp(rhs) == 0
}

// Sign produces a deterministic (RFC 6979-style) low-s signature over a
// 32-byte message hash.
func (priv *PrivateKey) Sign(hash []byte) (*Signature, error) {
	if len(hash) != 32 {
		return nil, fmt.Errorf("%w: hash must be 32 bytes", ErrInvalidSignature)
	}
	for attempt := byte(0); ; attempt++ {
		k := deterministicNonce(priv.D, hash, attempt)
		if k.Sign() == 0 || k.Cmp(_n) >= 0 {
			continue
		}
		rx, ry := scalarBaseMult(k)
		r := new(big.Int).Mod(rx, _n)
		if r.Sign() == 0 {
			continue
		}
		kInv := new(big.Int).ModInverse(k, _n)
		e := hashToInt(hash)
		s := new(big.Int).Mul(r, priv.D)
		s.Add(s, e)
		s.Mul(s, kInv)
		s.Mod(s, _n)
		if s.Sign() == 0 {
			continue
		}
		v := byte(ry.Bit(0))
		// Enforce low-s: negating s flips the recovery id.
		if s.Cmp(_halfN) > 0 {
			s.Sub(_n, s)
			v ^= 1
		}
		// rx >= n would add 2 to v; astronomically rare, retry instead
		// to keep V in {0, 1} as Ethereum expects.
		if rx.Cmp(_n) >= 0 {
			continue
		}
		return &Signature{R: r, S: s, V: v}, nil
	}
}

// deterministicNonce derives the ECDSA nonce via HMAC-SHA256 over the
// private scalar, message hash, and retry counter.
func deterministicNonce(d *big.Int, hash []byte, attempt byte) *big.Int {
	mac := hmac.New(sha256.New, d.Bytes())
	mac.Write(hash)
	mac.Write([]byte{attempt})
	k := new(big.Int).SetBytes(mac.Sum(nil))
	return k.Mod(k, _n)
}

// Verify checks the signature over a 32-byte message hash.
func (pub *PublicKey) Verify(hash []byte, sig *Signature) bool {
	if len(hash) != 32 || sig == nil {
		return false
	}
	r, s := sig.R, sig.S
	if r.Sign() <= 0 || s.Sign() <= 0 || r.Cmp(_n) >= 0 || s.Cmp(_n) >= 0 {
		return false
	}
	if !onCurve(pub.X, pub.Y) {
		return false
	}
	e := hashToInt(hash)
	w := new(big.Int).ModInverse(s, _n)
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, _n)
	u2 := new(big.Int).Mul(r, w)
	u2.Mod(u2, _n)

	x1, y1, z1 := scalarMultJacobian(_gx, _gy, u1)
	x2, y2, z2 := scalarMultJacobian(pub.X, pub.Y, u2)
	x3, _, z3 := addJacobian(x1, y1, z1, x2, y2, z2)
	if z3.Sign() == 0 {
		return false
	}
	// Affine x = x3 / z3^2.
	zInv := new(big.Int).ModInverse(z3, _p)
	zInv2 := new(big.Int).Mul(zInv, zInv)
	zInv2.Mod(zInv2, _p)
	xAff := new(big.Int).Mul(x3, zInv2)
	xAff.Mod(xAff, _p)
	xAff.Mod(xAff, _n)
	return xAff.Cmp(r) == 0
}

// Recover returns the public key that produced sig over hash, using the
// recovery id sig.V. This is Ethereum's ecrecover.
func Recover(hash []byte, sig *Signature) (*PublicKey, error) {
	if len(hash) != 32 || sig == nil {
		return nil, ErrInvalidSignature
	}
	r, s := sig.R, sig.S
	if r.Sign() <= 0 || s.Sign() <= 0 || r.Cmp(_n) >= 0 || s.Cmp(_n) >= 0 || sig.V > 1 {
		return nil, ErrInvalidSignature
	}
	// Candidate R point x coordinate (we keep V in {0,1}, so x = r).
	x := new(big.Int).Set(r)
	y, err := liftX(x, sig.V)
	if err != nil {
		return nil, err
	}
	// Q = (s * r^-1)*R - (e * r^-1)*G.
	e := hashToInt(hash)
	rInv := new(big.Int).ModInverse(r, _n)
	sr := new(big.Int).Mul(s, rInv)
	sr.Mod(sr, _n)
	er := new(big.Int).Mul(e, rInv)
	er.Mod(er, _n)

	sx, sy, sz := scalarMultJacobian(x, y, sr)
	negE := new(big.Int).Sub(_n, er)
	negE.Mod(negE, _n)
	ex, ey, ez := scalarMultJacobian(_gx, _gy, negE)
	qx, qy, qz := addJacobian(sx, sy, sz, ex, ey, ez)
	if qz.Sign() == 0 {
		return nil, ErrRecoveryFailed
	}
	ax, ay := toAffine(qx, qy, qz)
	pub := &PublicKey{X: ax, Y: ay}
	if !onCurve(ax, ay) || !pub.Verify(hash, sig) {
		return nil, ErrRecoveryFailed
	}
	return pub, nil
}

// liftX computes y with the requested parity for a given x on the curve.
func liftX(x *big.Int, parity byte) (*big.Int, error) {
	if x.Cmp(_p) >= 0 {
		return nil, ErrRecoveryFailed
	}
	y2 := new(big.Int).Mul(x, x)
	y2.Mul(y2, x)
	y2.Add(y2, _b)
	y2.Mod(y2, _p)
	y := new(big.Int).ModSqrt(y2, _p)
	if y == nil {
		return nil, ErrRecoveryFailed
	}
	if byte(y.Bit(0)) != parity {
		y.Sub(_p, y)
	}
	return y, nil
}

// hashToInt converts a 32-byte hash to an integer mod n, as per ECDSA.
func hashToInt(hash []byte) *big.Int {
	e := new(big.Int).SetBytes(hash)
	return e.Mod(e, _n)
}

// --- Jacobian point arithmetic ---

// toAffine converts Jacobian (x, y, z) to affine coordinates.
func toAffine(x, y, z *big.Int) (*big.Int, *big.Int) {
	zInv := new(big.Int).ModInverse(z, _p)
	zInv2 := new(big.Int).Mul(zInv, zInv)
	zInv2.Mod(zInv2, _p)
	zInv3 := new(big.Int).Mul(zInv2, zInv)
	zInv3.Mod(zInv3, _p)
	ax := new(big.Int).Mul(x, zInv2)
	ax.Mod(ax, _p)
	ay := new(big.Int).Mul(y, zInv3)
	ay.Mod(ay, _p)
	return ax, ay
}

// doubleJacobian returns 2*(x, y, z) in Jacobian coordinates.
func doubleJacobian(x, y, z *big.Int) (*big.Int, *big.Int, *big.Int) {
	if y.Sign() == 0 || z.Sign() == 0 {
		return new(big.Int), big.NewInt(1), new(big.Int)
	}
	// Standard dbl-2009-l formulas (a = 0).
	a := new(big.Int).Mul(x, x)
	a.Mod(a, _p)
	bb := new(big.Int).Mul(y, y)
	bb.Mod(bb, _p)
	c := new(big.Int).Mul(bb, bb)
	c.Mod(c, _p)

	d := new(big.Int).Add(x, bb)
	d.Mul(d, d)
	d.Sub(d, a)
	d.Sub(d, c)
	d.Lsh(d, 1)
	d.Mod(d, _p)

	e := new(big.Int).Lsh(a, 1)
	e.Add(e, a)
	e.Mod(e, _p)

	f := new(big.Int).Mul(e, e)
	f.Mod(f, _p)

	x3 := new(big.Int).Sub(f, new(big.Int).Lsh(d, 1))
	x3.Mod(x3, _p)

	y3 := new(big.Int).Sub(d, x3)
	y3.Mul(y3, e)
	c8 := new(big.Int).Lsh(c, 3)
	y3.Sub(y3, c8)
	y3.Mod(y3, _p)

	z3 := new(big.Int).Mul(y, z)
	z3.Lsh(z3, 1)
	z3.Mod(z3, _p)

	return x3, y3, z3
}

// addJacobian returns (x1,y1,z1) + (x2,y2,z2) in Jacobian coordinates.
func addJacobian(x1, y1, z1, x2, y2, z2 *big.Int) (*big.Int, *big.Int, *big.Int) {
	if z1.Sign() == 0 {
		return new(big.Int).Set(x2), new(big.Int).Set(y2), new(big.Int).Set(z2)
	}
	if z2.Sign() == 0 {
		return new(big.Int).Set(x1), new(big.Int).Set(y1), new(big.Int).Set(z1)
	}
	// add-2007-bl formulas.
	z1z1 := new(big.Int).Mul(z1, z1)
	z1z1.Mod(z1z1, _p)
	z2z2 := new(big.Int).Mul(z2, z2)
	z2z2.Mod(z2z2, _p)

	u1 := new(big.Int).Mul(x1, z2z2)
	u1.Mod(u1, _p)
	u2 := new(big.Int).Mul(x2, z1z1)
	u2.Mod(u2, _p)

	s1 := new(big.Int).Mul(y1, z2)
	s1.Mul(s1, z2z2)
	s1.Mod(s1, _p)
	s2 := new(big.Int).Mul(y2, z1)
	s2.Mul(s2, z1z1)
	s2.Mod(s2, _p)

	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, _p)
	rr := new(big.Int).Sub(s2, s1)
	rr.Mod(rr, _p)

	if h.Sign() == 0 {
		if rr.Sign() == 0 {
			return doubleJacobian(x1, y1, z1)
		}
		// P + (-P) = infinity.
		return new(big.Int), big.NewInt(1), new(big.Int)
	}

	i := new(big.Int).Lsh(h, 1)
	i.Mul(i, i)
	i.Mod(i, _p)
	j := new(big.Int).Mul(h, i)
	j.Mod(j, _p)
	rr.Lsh(rr, 1)
	rr.Mod(rr, _p)
	v := new(big.Int).Mul(u1, i)
	v.Mod(v, _p)

	x3 := new(big.Int).Mul(rr, rr)
	x3.Sub(x3, j)
	x3.Sub(x3, new(big.Int).Lsh(v, 1))
	x3.Mod(x3, _p)

	y3 := new(big.Int).Sub(v, x3)
	y3.Mul(y3, rr)
	s1j := new(big.Int).Mul(s1, j)
	s1j.Lsh(s1j, 1)
	y3.Sub(y3, s1j)
	y3.Mod(y3, _p)

	z3 := new(big.Int).Add(z1, z2)
	z3.Mul(z3, z3)
	z3.Sub(z3, z1z1)
	z3.Sub(z3, z2z2)
	z3.Mul(z3, h)
	z3.Mod(z3, _p)

	return x3, y3, z3
}

// scalarMultJacobian computes k*(x, y) returning Jacobian coordinates.
func scalarMultJacobian(x, y, k *big.Int) (*big.Int, *big.Int, *big.Int) {
	rx, ry, rz := new(big.Int), big.NewInt(1), new(big.Int) // infinity
	px, py, pz := new(big.Int).Set(x), new(big.Int).Set(y), big.NewInt(1)
	for i := k.BitLen() - 1; i >= 0; i-- {
		rx, ry, rz = doubleJacobian(rx, ry, rz)
		if k.Bit(i) == 1 {
			rx, ry, rz = addJacobian(rx, ry, rz, px, py, pz)
		}
	}
	return rx, ry, rz
}

// scalarBaseMult computes k*G in affine coordinates.
func scalarBaseMult(k *big.Int) (*big.Int, *big.Int) {
	x, y, z := scalarMultJacobian(_gx, _gy, k)
	if z.Sign() == 0 {
		return new(big.Int), new(big.Int)
	}
	return toAffine(x, y, z)
}
