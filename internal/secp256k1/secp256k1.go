// Package secp256k1 implements the secp256k1 elliptic curve and the
// ECDSA sign/verify/recover operations Ethereum uses for transaction
// signatures.
//
// Field and scalar arithmetic run on the EVM's own 256-bit word
// (internal/uint256). It is NOT constant time and must not be used to
// protect long-lived production secrets; within this reproduction it
// signs synthetic workload transactions and verifies/recovers senders
// from public signatures, mirroring what an Ethereum node does.
package secp256k1

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"

	"hardtape/internal/keccak"
	"hardtape/internal/uint256"
)

// Curve parameters for secp256k1: y^2 = x^3 + 7 over F_p.
var (
	_p = uint256.MustFromHex("0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
	_n = uint256.MustFromHex("0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	_g = PublicKey{
		X: *uint256.MustFromHex("0x79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
		Y: *uint256.MustFromHex("0x483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
	}
	_b = uint256.NewInt(7)

	// _halfN is used to enforce low-s signatures (EIP-2).
	_halfN = new(uint256.Int).Rsh(_n, 1)

	// Exponents for exp: a^(m-2) is a^-1 mod a prime m (Fermat), and
	// since p ≡ 3 mod 4, a^((p+1)/4) is a square root of a if a has one.
	_pInv  = new(uint256.Int).Sub(_p, uint256.NewInt(2))
	_nInv  = new(uint256.Int).Sub(_n, uint256.NewInt(2))
	_pSqrt = new(uint256.Int).Rsh(new(uint256.Int).Add(_p, uint256.NewInt(1)), 2)
)

// Errors returned by signature operations.
var (
	ErrInvalidKey       = errors.New("secp256k1: invalid private key")
	ErrInvalidSignature = errors.New("secp256k1: invalid signature")
	ErrRecoveryFailed   = errors.New("secp256k1: public key recovery failed")
)

// PrivateKey is a secp256k1 private scalar with its public point.
type PrivateKey struct {
	D      uint256.Int
	Public PublicKey
}

// PublicKey is a point on the curve in affine coordinates.
type PublicKey struct {
	X, Y uint256.Int
}

// Signature is an ECDSA signature with a recovery id V in {0, 1}.
type Signature struct {
	R, S uint256.Int
	V    byte
}

// GenerateKey derives a private key deterministically from seed bytes
// (hashed and reduced mod n). A zero-scalar result is remapped to 1.
func GenerateKey(seed []byte) (*PrivateKey, error) {
	if len(seed) == 0 {
		return nil, fmt.Errorf("%w: empty seed", ErrInvalidKey)
	}
	h := keccak.Sum256(seed)
	var d uint256.Int
	d.Mod(d.SetBytes(h[:]), _n)
	if d.IsZero() {
		d.SetOne()
	}
	return NewPrivateKey(&d)
}

// NewPrivateKey wraps an existing scalar, validating 0 < d < n.
func NewPrivateKey(d *uint256.Int) (*PrivateKey, error) {
	if d == nil || !inRange(d) {
		return nil, ErrInvalidKey
	}
	pub, _ := mulAdd(d, &_g, new(uint256.Int))
	return &PrivateKey{D: *d, Public: pub}, nil
}

// Address returns the Ethereum address of the public key: the low 20
// bytes of keccak256(X || Y) with 32-byte big-endian coordinates.
func (pub *PublicKey) Address() [20]byte {
	buf := pub.Bytes()
	h := keccak.Sum256(buf[:])
	var addr [20]byte
	copy(addr[:], h[12:])
	return addr
}

// Bytes returns the uncompressed 64-byte X||Y encoding.
func (pub *PublicKey) Bytes() [64]byte {
	var buf [64]byte
	x, y := pub.X.Bytes32(), pub.Y.Bytes32()
	copy(buf[:32], x[:])
	copy(buf[32:], y[:])
	return buf
}

// LowS reports whether s ≤ n/2, the only form EIP-2 lets a transaction
// signature take. Recover accepts either form, as ecrecover does.
func (sig *Signature) LowS() bool {
	return !sig.S.Gt(_halfN)
}

// inRange reports whether 0 < k < n, the range of a valid scalar.
func inRange(k *uint256.Int) bool {
	return !k.IsZero() && k.Lt(_n)
}

// curveRHS sets z = x^3 + 7 mod p and returns z.
func curveRHS(z, x *uint256.Int) *uint256.Int {
	z.MulMod(x, x, _p)
	z.MulMod(z, x, _p)
	return z.AddMod(z, _b, _p)
}

// onCurve reports whether (x, y) satisfies the curve equation.
func onCurve(x, y *uint256.Int) bool {
	if !x.Lt(_p) || !y.Lt(_p) {
		return false
	}
	var y2, rhs uint256.Int
	return y2.MulMod(y, y, _p).Eq(curveRHS(&rhs, x))
}

// Sign produces a deterministic (RFC 6979-style) low-s signature over a
// 32-byte message hash.
func (priv *PrivateKey) Sign(hash []byte) (*Signature, error) {
	if len(hash) != 32 {
		return nil, fmt.Errorf("%w: hash must be 32 bytes", ErrInvalidSignature)
	}
	e := hashToInt(hash)
	for attempt := byte(0); ; attempt++ {
		k := deterministicNonce(&priv.D, hash, attempt)
		if !inRange(&k) {
			continue
		}
		kG, _ := mulAdd(&k, &_g, new(uint256.Int))
		// r = 0 is invalid, and an x >= n would add 2 to V: that is
		// astronomically rare, so retry to keep V in {0, 1} as
		// Ethereum expects.
		if !inRange(&kG.X) {
			continue
		}
		sig := &Signature{R: kG.X, V: byte(kG.Y[0] & 1)}
		var kInv uint256.Int
		exp(&kInv, &k, _nInv, _n)
		sig.S.MulMod(&sig.R, &priv.D, _n)
		sig.S.AddMod(&sig.S, &e, _n)
		sig.S.MulMod(&sig.S, &kInv, _n)
		if sig.S.IsZero() {
			continue
		}
		// Enforce low-s: negating s flips the recovery id.
		if !sig.LowS() {
			sig.S.Sub(_n, &sig.S)
			sig.V ^= 1
		}
		return sig, nil
	}
}

// deterministicNonce derives the ECDSA nonce via HMAC-SHA256 over the
// private scalar, message hash, and retry counter.
func deterministicNonce(d *uint256.Int, hash []byte, attempt byte) uint256.Int {
	mac := hmac.New(sha256.New, d.Bytes())
	mac.Write(hash)
	mac.Write([]byte{attempt})
	var k uint256.Int
	k.Mod(k.SetBytes(mac.Sum(nil)), _n)
	return k
}

// Verify checks the signature over a 32-byte message hash.
func (pub *PublicKey) Verify(hash []byte, sig *Signature) bool {
	if len(hash) != 32 || sig == nil {
		return false
	}
	if !inRange(&sig.R) || !inRange(&sig.S) || !onCurve(&pub.X, &pub.Y) {
		return false
	}
	// x(u1·G + u2·Q) ≡ r with u1 = e/s and u2 = r/s.
	e := hashToInt(hash)
	var w, u1, u2 uint256.Int
	exp(&w, &sig.S, _nInv, _n)
	u1.MulMod(&e, &w, _n)
	u2.MulMod(&sig.R, &w, _n)
	sum, ok := mulAdd(&u1, pub, &u2)
	return ok && sum.X.Mod(&sum.X, _n).Eq(&sig.R)
}

// Recover returns the public key that produced sig over hash, using the
// recovery id sig.V. This is Ethereum's ecrecover.
func Recover(hash []byte, sig *Signature) (*PublicKey, error) {
	if len(hash) != 32 || sig == nil {
		return nil, ErrInvalidSignature
	}
	if !inRange(&sig.R) || !inRange(&sig.S) || sig.V > 1 {
		return nil, ErrInvalidSignature
	}
	// Lift R: V in {0, 1} means its x is r itself, and its y is the
	// square root of r^3 + 7 with parity V, if that has a root.
	point := PublicKey{X: sig.R}
	var y2, check uint256.Int
	curveRHS(&y2, &sig.R)
	exp(&point.Y, &y2, _pSqrt, _p)
	if !check.MulMod(&point.Y, &point.Y, _p).Eq(&y2) {
		return nil, ErrRecoveryFailed
	}
	if byte(point.Y[0]&1) != sig.V {
		point.Y.Sub(_p, &point.Y)
	}
	// Q = r^-1·(s·R - e·G) = (-e/r)·G + (s/r)·R.
	e := hashToInt(hash)
	var rInv, u1, u2 uint256.Int
	exp(&rInv, &sig.R, _nInv, _n)
	u1.MulMod(&e, &rInv, _n)
	u1.Mod(u1.Sub(_n, &u1), _n)
	u2.MulMod(&sig.S, &rInv, _n)
	pub, ok := mulAdd(&u1, &point, &u2)
	if !ok || !onCurve(&pub.X, &pub.Y) || !pub.Verify(hash, sig) {
		return nil, ErrRecoveryFailed
	}
	return &pub, nil
}

// hashToInt converts a 32-byte hash to an integer mod n, as per ECDSA.
func hashToInt(hash []byte) uint256.Int {
	var e uint256.Int
	e.Mod(e.SetBytes(hash), _n)
	return e
}

// exp sets z = x^e mod m by square-and-multiply and returns z.
func exp(z, x, e, m *uint256.Int) *uint256.Int {
	var acc uint256.Int
	acc.SetOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.MulMod(&acc, &acc, m)
		if bit(e, i) == 1 {
			acc.MulMod(&acc, x, m)
		}
	}
	return z.Set(&acc)
}

// bit returns bit i of k.
func bit(k *uint256.Int, i int) int {
	return int(k[i/64] >> (i % 64) & 1)
}

// --- Jacobian point arithmetic ---

// jacobian is the point (x/z^2, y/z^3); z = 0 is the point at infinity.
type jacobian struct {
	x, y, z uint256.Int
}

// fsub sets z = x - y mod p for x, y < p and returns z.
func fsub(z, x, y *uint256.Int) *uint256.Int {
	if _, borrow := z.SubOverflow(x, y); borrow {
		z.Add(z, _p)
	}
	return z
}

// double sets j = 2a (dbl-2009-l, a = 0) and returns j.
func (j *jacobian) double(a *jacobian) *jacobian {
	if a.y.IsZero() || a.z.IsZero() {
		*j = jacobian{}
		return j
	}
	var aa, bb, c, d, e, f uint256.Int
	aa.MulMod(&a.x, &a.x, _p)
	bb.MulMod(&a.y, &a.y, _p)
	c.MulMod(&bb, &bb, _p)
	d.AddMod(&a.x, &bb, _p)
	d.MulMod(&d, &d, _p)
	fsub(&d, fsub(&d, &d, &aa), &c)
	d.AddMod(&d, &d, _p)
	e.AddMod(&aa, &aa, _p)
	e.AddMod(&e, &aa, _p)
	f.MulMod(&e, &e, _p)
	// z first: j may alias a, and z is the last use of a.
	j.z.MulMod(&a.y, &a.z, _p)
	j.z.AddMod(&j.z, &j.z, _p)
	fsub(&j.x, fsub(&j.x, &f, &d), &d)
	j.y.MulMod(fsub(&j.y, &d, &j.x), &e, _p)
	c.AddMod(&c, &c, _p)
	c.AddMod(&c, &c, _p)
	c.AddMod(&c, &c, _p)
	fsub(&j.y, &j.y, &c)
	return j
}

// add sets j = a + b (add-2007-bl) and returns j.
func (j *jacobian) add(a, b *jacobian) *jacobian {
	if a.z.IsZero() {
		*j = *b
		return j
	}
	if b.z.IsZero() {
		*j = *a
		return j
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r uint256.Int
	z1z1.MulMod(&a.z, &a.z, _p)
	z2z2.MulMod(&b.z, &b.z, _p)
	u1.MulMod(&a.x, &z2z2, _p)
	u2.MulMod(&b.x, &z1z1, _p)
	s1.MulMod(&a.y, &b.z, _p)
	s1.MulMod(&s1, &z2z2, _p)
	s2.MulMod(&b.y, &a.z, _p)
	s2.MulMod(&s2, &z1z1, _p)
	fsub(&h, &u2, &u1)
	fsub(&r, &s2, &s1)
	if h.IsZero() {
		if r.IsZero() {
			return j.double(a)
		}
		// P + (-P) = infinity.
		*j = jacobian{}
		return j
	}
	var i, jj, v, z3 uint256.Int
	i.AddMod(&h, &h, _p)
	i.MulMod(&i, &i, _p)
	jj.MulMod(&h, &i, _p)
	r.AddMod(&r, &r, _p)
	v.MulMod(&u1, &i, _p)
	// z3 reads a.z and b.z, so it is computed before j (which may alias
	// either) is written.
	z3.AddMod(&a.z, &b.z, _p)
	z3.MulMod(&z3, &z3, _p)
	fsub(&z3, fsub(&z3, &z3, &z1z1), &z2z2)
	j.z.MulMod(&z3, &h, _p)
	j.x.MulMod(&r, &r, _p)
	fsub(&j.x, fsub(&j.x, &j.x, &jj), &v)
	fsub(&j.x, &j.x, &v)
	j.y.MulMod(fsub(&j.y, &v, &j.x), &r, _p)
	s1.MulMod(&s1, &jj, _p)
	s1.AddMod(&s1, &s1, _p)
	fsub(&j.y, &j.y, &s1)
	return j
}

// mulAdd returns u1·G + u2·Q in affine coordinates, or false if the sum
// is the point at infinity. It is Strauss–Shamir: one doubling chain
// over both scalars, adding G, Q or G+Q at each bit.
func mulAdd(u1 *uint256.Int, q *PublicKey, u2 *uint256.Int) (PublicKey, bool) {
	var table [4]jacobian // table[b1 + 2·b2] = b1·G + b2·Q
	table[1] = jacobian{x: _g.X, y: _g.Y, z: *uint256.NewInt(1)}
	table[2] = jacobian{x: q.X, y: q.Y, z: *uint256.NewInt(1)}
	table[3].add(&table[1], &table[2])
	var acc jacobian
	for i := max(u1.BitLen(), u2.BitLen()) - 1; i >= 0; i-- {
		acc.double(&acc)
		if k := bit(u1, i) + 2*bit(u2, i); k != 0 {
			acc.add(&acc, &table[k])
		}
	}
	if acc.z.IsZero() {
		return PublicKey{}, false
	}
	var zInv, zInv2 uint256.Int
	exp(&zInv, &acc.z, _pInv, _p)
	zInv2.MulMod(&zInv, &zInv, _p)
	var pub PublicKey
	pub.X.MulMod(&acc.x, &zInv2, _p)
	pub.Y.MulMod(&acc.y, zInv.MulMod(&zInv, &zInv2, _p), _p)
	return pub, true
}
