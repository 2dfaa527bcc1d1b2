// Package uint256 implements fixed-size 256-bit unsigned integer
// arithmetic as required by the EVM's 256-bit stack machine.
//
// An Int is four 64-bit limbs in little-endian order. All arithmetic is
// modulo 2^256 unless documented otherwise. The zero value is usable and
// represents 0.
package uint256

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// Int is a 256-bit unsigned integer: limbs in little-endian order, so
// z[0] is the least-significant 64 bits.
type Int [4]uint64

// Common errors returned by parsing functions.
var (
	ErrSyntax   = errors.New("uint256: invalid syntax")
	ErrOverflow = errors.New("uint256: value overflows 256 bits")
)

// NewInt returns a new Int set to the value of x.
func NewInt(x uint64) *Int {
	return &Int{x, 0, 0, 0}
}

// FromBig converts a big.Int to an Int. It reports overflow via the
// second return value; the value is truncated modulo 2^256 on overflow.
// Negative inputs are converted from their two's-complement
// representation (matching EVM semantics for signed values).
func FromBig(b *big.Int) (*Int, bool) {
	z := new(Int)
	overflow := z.SetFromBig(b)
	return z, overflow
}

// MustFromBig is FromBig, panicking on overflow. Intended for test and
// constant-construction contexts only.
func MustFromBig(b *big.Int) *Int {
	z, overflow := FromBig(b)
	if overflow {
		panic("uint256: MustFromBig overflow")
	}
	return z
}

// FromHex parses a 0x-prefixed hexadecimal string.
func FromHex(s string) (*Int, error) {
	if !strings.HasPrefix(s, "0x") && !strings.HasPrefix(s, "0X") {
		return nil, fmt.Errorf("%w: missing 0x prefix in %q", ErrSyntax, s)
	}
	h := s[2:]
	if len(h) == 0 || len(h) > 64 {
		return nil, fmt.Errorf("%w: hex length %d", ErrSyntax, len(h))
	}
	if len(h)%2 == 1 {
		h = "0" + h
	}
	raw, err := hex.DecodeString(h)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	return new(Int).SetBytes(raw), nil
}

// MustFromHex is FromHex, panicking on error.
func MustFromHex(s string) *Int {
	z, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return z
}

// SetFromBig sets z from b (two's complement for negatives) and reports
// whether b overflowed 256 bits.
func (z *Int) SetFromBig(b *big.Int) bool {
	z.Clear()
	words := b.Bits()
	overflow := false
	switch bits.UintSize {
	case 64:
		if len(words) > 4 {
			words = words[:4]
			overflow = true
		}
		for i, w := range words {
			z[i] = uint64(w)
		}
	case 32:
		if len(words) > 8 {
			words = words[:8]
			overflow = true
		}
		for i, w := range words {
			z[i/2] |= uint64(w) << (32 * uint(i%2))
		}
	}
	if b.Sign() < 0 {
		z.Neg(z)
	}
	return overflow
}

// ToBig returns the value as a new big.Int.
func (z *Int) ToBig() *big.Int {
	b := new(big.Int)
	buf := z.Bytes32()
	return b.SetBytes(buf[:])
}

// Clear sets z to 0 and returns z.
func (z *Int) Clear() *Int {
	z[0], z[1], z[2], z[3] = 0, 0, 0, 0
	return z
}

// Set sets z = x and returns z.
func (z *Int) Set(x *Int) *Int {
	*z = *x
	return z
}

// SetUint64 sets z to the value of x and returns z.
func (z *Int) SetUint64(x uint64) *Int {
	z[0], z[1], z[2], z[3] = x, 0, 0, 0
	return z
}

// SetOne sets z to 1 and returns z.
func (z *Int) SetOne() *Int {
	return z.SetUint64(1)
}

// Clone returns a copy of z.
func (z *Int) Clone() *Int {
	c := *z
	return &c
}

// IsZero reports whether z == 0.
func (z *Int) IsZero() bool {
	return (z[0] | z[1] | z[2] | z[3]) == 0
}

// IsUint64 reports whether z fits in a uint64.
func (z *Int) IsUint64() bool {
	return (z[1] | z[2] | z[3]) == 0
}

// Uint64 returns the low 64 bits of z.
func (z *Int) Uint64() uint64 {
	return z[0]
}

// Uint64WithOverflow returns the low 64 bits and whether z overflows
// a uint64.
func (z *Int) Uint64WithOverflow() (uint64, bool) {
	return z[0], !z.IsUint64()
}

// Eq reports whether z == x.
func (z *Int) Eq(x *Int) bool {
	return *z == *x
}

// Cmp compares z and x, returning -1, 0 or +1.
func (z *Int) Cmp(x *Int) int {
	for i := 3; i >= 0; i-- {
		switch {
		case z[i] < x[i]:
			return -1
		case z[i] > x[i]:
			return 1
		}
	}
	return 0
}

// Lt reports whether z < x (unsigned).
func (z *Int) Lt(x *Int) bool { return z.Cmp(x) < 0 }

// Gt reports whether z > x (unsigned).
func (z *Int) Gt(x *Int) bool { return z.Cmp(x) > 0 }

// Sign returns the sign of z interpreted as a two's-complement signed
// 256-bit integer: -1, 0 or +1.
func (z *Int) Sign() int {
	if z.IsZero() {
		return 0
	}
	if z[3]>>63 == 1 {
		return -1
	}
	return 1
}

// Slt reports whether z < x in signed (two's complement) comparison.
func (z *Int) Slt(x *Int) bool {
	zs, xs := z.Sign(), x.Sign()
	switch {
	case zs >= 0 && xs < 0:
		return false
	case zs < 0 && xs >= 0:
		return true
	default:
		return z.Cmp(x) < 0
	}
}

// Sgt reports whether z > x in signed comparison.
func (z *Int) Sgt(x *Int) bool {
	zs, xs := z.Sign(), x.Sign()
	switch {
	case zs >= 0 && xs < 0:
		return true
	case zs < 0 && xs >= 0:
		return false
	default:
		return z.Cmp(x) > 0
	}
}

// BitLen returns the number of bits required to represent z.
func (z *Int) BitLen() int {
	for i := 3; i >= 0; i-- {
		if z[i] != 0 {
			return 64*i + bits.Len64(z[i])
		}
	}
	return 0
}

// ByteLen returns the number of bytes required to represent z.
func (z *Int) ByteLen() int {
	return (z.BitLen() + 7) / 8
}

// Add sets z = x + y (mod 2^256) and returns z.
func (z *Int) Add(x, y *Int) *Int {
	var carry uint64
	z[0], carry = bits.Add64(x[0], y[0], 0)
	z[1], carry = bits.Add64(x[1], y[1], carry)
	z[2], carry = bits.Add64(x[2], y[2], carry)
	z[3], _ = bits.Add64(x[3], y[3], carry)
	return z
}

// AddOverflow sets z = x + y and reports whether the addition
// overflowed 2^256.
func (z *Int) AddOverflow(x, y *Int) (*Int, bool) {
	var carry uint64
	z[0], carry = bits.Add64(x[0], y[0], 0)
	z[1], carry = bits.Add64(x[1], y[1], carry)
	z[2], carry = bits.Add64(x[2], y[2], carry)
	z[3], carry = bits.Add64(x[3], y[3], carry)
	return z, carry != 0
}

// Sub sets z = x - y (mod 2^256) and returns z.
func (z *Int) Sub(x, y *Int) *Int {
	var borrow uint64
	z[0], borrow = bits.Sub64(x[0], y[0], 0)
	z[1], borrow = bits.Sub64(x[1], y[1], borrow)
	z[2], borrow = bits.Sub64(x[2], y[2], borrow)
	z[3], _ = bits.Sub64(x[3], y[3], borrow)
	return z
}

// SubOverflow sets z = x - y and reports whether the subtraction
// underflowed.
func (z *Int) SubOverflow(x, y *Int) (*Int, bool) {
	var borrow uint64
	z[0], borrow = bits.Sub64(x[0], y[0], 0)
	z[1], borrow = bits.Sub64(x[1], y[1], borrow)
	z[2], borrow = bits.Sub64(x[2], y[2], borrow)
	z[3], borrow = bits.Sub64(x[3], y[3], borrow)
	return z, borrow != 0
}

// Neg sets z = -x (mod 2^256) and returns z.
func (z *Int) Neg(x *Int) *Int {
	return z.Sub(new(Int), x)
}

// Mul sets z = x * y (mod 2^256) and returns z.
func (z *Int) Mul(x, y *Int) *Int {
	var res Int
	var carry uint64

	carry, res[0] = bits.Mul64(x[0], y[0])
	carry, res[1] = umulHop(carry, x[1], y[0])
	carry, res[2] = umulHop(carry, x[2], y[0])
	res[3] = carry + x[3]*y[0]

	carry, res[1] = umulHop(res[1], x[0], y[1])
	carry, res[2] = umulStep(res[2], x[1], y[1], carry)
	res[3] += x[2]*y[1] + carry

	carry, res[2] = umulHop(res[2], x[0], y[2])
	res[3] += x[1]*y[2] + carry

	res[3] += x[0] * y[3]

	return z.Set(&res)
}

// umulHop computes hi * 2^64 + lo = z + (x * y).
func umulHop(z, x, y uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(x, y)
	lo, carry := bits.Add64(lo, z, 0)
	hi += carry
	return hi, lo
}

// umulStep computes hi * 2^64 + lo = z + (x * y) + carry.
func umulStep(z, x, y, carry uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(x, y)
	lo, c := bits.Add64(lo, carry, 0)
	hi += c
	lo, c = bits.Add64(lo, z, 0)
	hi += c
	return hi, lo
}

// umul computes the full 512-bit product of x and y as 8 limbs.
func umul(x, y *Int) [8]uint64 {
	var res [8]uint64
	var carry, carry4, carry5, carry6 uint64
	var res1, res2, res3, res4, res5 uint64

	carry, res[0] = bits.Mul64(x[0], y[0])
	carry, res1 = umulHop(carry, x[1], y[0])
	carry, res2 = umulHop(carry, x[2], y[0])
	carry4, res3 = umulHop(carry, x[3], y[0])

	carry, res[1] = umulHop(res1, x[0], y[1])
	carry, res2 = umulStep(res2, x[1], y[1], carry)
	carry, res3 = umulStep(res3, x[2], y[1], carry)
	carry5, res4 = umulStep(carry4, x[3], y[1], carry)

	carry, res[2] = umulHop(res2, x[0], y[2])
	carry, res3 = umulStep(res3, x[1], y[2], carry)
	carry, res4 = umulStep(res4, x[2], y[2], carry)
	carry6, res5 = umulStep(carry5, x[3], y[2], carry)

	carry, res[3] = umulHop(res3, x[0], y[3])
	carry, res[4] = umulStep(res4, x[1], y[3], carry)
	carry, res[5] = umulStep(res5, x[2], y[3], carry)
	res[7], res[6] = umulStep(carry6, x[3], y[3], carry)

	return res
}

// Div sets z = x / y (integer division), with the EVM convention that
// division by zero yields 0. Returns z.
func (z *Int) Div(x, y *Int) *Int {
	if y.IsZero() || y.Gt(x) {
		return z.Clear()
	}
	if x.Eq(y) {
		return z.SetOne()
	}
	if x.IsUint64() {
		return z.SetUint64(x.Uint64() / y.Uint64())
	}
	var quot Int
	udivrem(quot[:], x[:], y)
	return z.Set(&quot)
}

// Mod sets z = x % y, with x % 0 == 0, and returns z.
func (z *Int) Mod(x, y *Int) *Int {
	if y.IsZero() || x.Eq(y) {
		return z.Clear()
	}
	if x.Lt(y) {
		return z.Set(x)
	}
	if x.IsUint64() {
		return z.SetUint64(x.Uint64() % y.Uint64())
	}
	var quot Int
	*z = udivrem(quot[:], x[:], y)
	return z
}

// SDiv sets z = x / y for signed (two's complement) values, truncating
// toward zero, with the EVM convention x / 0 == 0. Returns z.
func (z *Int) SDiv(n, d *Int) *Int {
	if n.Sign() > 0 {
		if d.Sign() > 0 {
			return z.Div(n, d)
		}
		var dNeg Int
		dNeg.Neg(d)
		z.Div(n, &dNeg)
		return z.Neg(z)
	}
	var nNeg Int
	nNeg.Neg(n)
	if d.Sign() < 0 {
		var dNeg Int
		dNeg.Neg(d)
		return z.Div(&nNeg, &dNeg)
	}
	z.Div(&nNeg, d)
	return z.Neg(z)
}

// SMod sets z = x % y for signed values (sign follows the dividend),
// with x % 0 == 0. Returns z.
func (z *Int) SMod(x, y *Int) *Int {
	ys := y.Sign()
	xs := x.Sign()

	var xAbs, yAbs Int
	xAbs.Set(x)
	if xs < 0 {
		xAbs.Neg(x)
	}
	yAbs.Set(y)
	if ys < 0 {
		yAbs.Neg(y)
	}
	z.Mod(&xAbs, &yAbs)
	if xs < 0 {
		z.Neg(z)
	}
	return z
}

// AddMod sets z = (x + y) % m, with the convention that m == 0 yields 0.
func (z *Int) AddMod(x, y, m *Int) *Int {
	if m.IsZero() {
		return z.Clear()
	}
	var sum Int
	_, overflow := sum.AddOverflow(x, y)
	if !overflow {
		return z.Mod(&sum, m)
	}
	// Reduce using the 320-bit value [1, sum].
	num := [5]uint64{sum[0], sum[1], sum[2], sum[3], 1}
	var quot [5]uint64
	rem := udivrem(quot[:], num[:], m)
	return z.Set(&rem)
}

// MulMod sets z = (x * y) % m, with m == 0 yielding 0.
func (z *Int) MulMod(x, y, m *Int) *Int {
	if m.IsZero() {
		return z.Clear()
	}
	if x.IsZero() || y.IsZero() {
		return z.Clear()
	}
	p := umul(x, y)
	if (p[4] | p[5] | p[6] | p[7]) == 0 {
		var prod Int
		copy(prod[:], p[:4])
		return z.Mod(&prod, m)
	}
	var quot [8]uint64
	rem := udivrem(quot[:], p[:], m)
	return z.Set(&rem)
}

// Exp sets z = base^exponent (mod 2^256) by square-and-multiply.
func (z *Int) Exp(base, exponent *Int) *Int {
	res := NewInt(1)
	multiplier := base.Clone()
	expBitLen := exponent.BitLen()

	bit := 0
	for word := 0; word < 4 && bit < expBitLen; word++ {
		e := exponent[word]
		for i := 0; i < 64 && bit < expBitLen; i, bit = i+1, bit+1 {
			if e&1 == 1 {
				res.Mul(res, multiplier)
			}
			multiplier.Mul(multiplier, multiplier)
			e >>= 1
		}
	}
	return z.Set(res)
}

// SignExtend implements the EVM SIGNEXTEND operation: extend the sign
// of the value in x considered as a (back+1)-byte signed integer.
func (z *Int) SignExtend(back, x *Int) *Int {
	if back.Cmp(NewInt(31)) >= 0 {
		return z.Set(x)
	}
	bitPos := uint(back.Uint64()*8 + 7)
	word := bitPos / 64
	bitInWord := bitPos % 64
	signSet := x[word]&(1<<bitInWord) != 0
	z.Set(x)
	if signSet {
		// Set all higher bits.
		z[word] |= ^uint64(0) << bitInWord
		for i := word + 1; i < 4; i++ {
			z[i] = ^uint64(0)
		}
	} else {
		z[word] &= ^(^uint64(0) << bitInWord) | (1<<bitInWord - 1)
		z[word] &= (uint64(1) << (bitInWord + 1)) - 1
		for i := word + 1; i < 4; i++ {
			z[i] = 0
		}
	}
	return z
}

// Byte implements the EVM BYTE operation: z = the n'th byte of x, where
// byte 0 is the most significant. Out-of-range n yields 0.
// It sets z from x in place and returns z.
func (z *Int) Byte(n, x *Int) *Int {
	if !n.IsUint64() || n.Uint64() >= 32 {
		return z.Clear()
	}
	idx := n.Uint64()
	word := 3 - idx/8
	shift := (7 - idx%8) * 8
	return z.SetUint64((x[word] >> shift) & 0xff)
}

// And sets z = x & y and returns z.
func (z *Int) And(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
	return z
}

// Or sets z = x | y and returns z.
func (z *Int) Or(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]|y[0], x[1]|y[1], x[2]|y[2], x[3]|y[3]
	return z
}

// Xor sets z = x ^ y and returns z.
func (z *Int) Xor(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
	return z
}

// Not sets z = ^x and returns z.
func (z *Int) Not(x *Int) *Int {
	z[0], z[1], z[2], z[3] = ^x[0], ^x[1], ^x[2], ^x[3]
	return z
}

// Lsh sets z = x << n and returns z.
func (z *Int) Lsh(x *Int, n uint) *Int {
	if n >= 256 {
		return z.Clear()
	}
	z.Set(x)
	for ; n >= 64; n -= 64 {
		z[3], z[2], z[1], z[0] = z[2], z[1], z[0], 0
	}
	if n == 0 {
		return z
	}
	z[3] = z[3]<<n | z[2]>>(64-n)
	z[2] = z[2]<<n | z[1]>>(64-n)
	z[1] = z[1]<<n | z[0]>>(64-n)
	z[0] <<= n
	return z
}

// Rsh sets z = x >> n (logical shift) and returns z.
func (z *Int) Rsh(x *Int, n uint) *Int {
	if n >= 256 {
		return z.Clear()
	}
	z.Set(x)
	for ; n >= 64; n -= 64 {
		z[0], z[1], z[2], z[3] = z[1], z[2], z[3], 0
	}
	if n == 0 {
		return z
	}
	z[0] = z[0]>>n | z[1]<<(64-n)
	z[1] = z[1]>>n | z[2]<<(64-n)
	z[2] = z[2]>>n | z[3]<<(64-n)
	z[3] >>= n
	return z
}

// SRsh sets z = x >> n with sign extension (arithmetic shift) and
// returns z.
func (z *Int) SRsh(x *Int, n uint) *Int {
	if x.Sign() >= 0 {
		return z.Rsh(x, n)
	}
	if n >= 256 {
		return z.Not(new(Int)) // all ones
	}
	z.Rsh(x, n)
	// Fill vacated high bits with ones.
	var mask Int
	mask.Not(&mask)        // all ones
	mask.Lsh(&mask, 256-n) // ones in the top n bits
	return z.Or(z, &mask)
}

// SetBytes interprets buf as a big-endian unsigned integer and sets z.
// Inputs longer than 32 bytes keep only the low-order 32 bytes.
func (z *Int) SetBytes(buf []byte) *Int {
	if len(buf) > 32 {
		buf = buf[len(buf)-32:]
	}
	z.Clear()
	for i := 0; i < len(buf); i++ {
		byteIdx := len(buf) - 1 - i // position counted from the least-significant byte
		z[byteIdx/8] |= uint64(buf[i]) << (8 * uint(byteIdx%8))
	}
	return z
}

// Bytes32 returns z as a 32-byte big-endian array.
func (z *Int) Bytes32() [32]byte {
	var b [32]byte
	for i := 0; i < 32; i++ {
		b[31-i] = byte(z[i/8] >> (8 * uint(i%8)))
	}
	return b
}

// Bytes returns the minimal big-endian byte representation of z
// (empty slice for zero).
func (z *Int) Bytes() []byte {
	full := z.Bytes32()
	n := z.ByteLen()
	return full[32-n:]
}

// Hex returns a 0x-prefixed minimal hexadecimal representation.
func (z *Int) Hex() string {
	if z.IsZero() {
		return "0x0"
	}
	s := hex.EncodeToString(z.Bytes())
	s = strings.TrimLeft(s, "0")
	return "0x" + s
}

// String implements fmt.Stringer using decimal notation.
func (z *Int) String() string {
	return z.ToBig().String()
}

// udivrem divides u by d, writing the quotient into quot and returning
// the remainder. u may have more limbs than d (which is 4 limbs).
// It implements Knuth's Algorithm D with 64-bit digits.
func udivrem(quot, u []uint64, d *Int) (rem Int) {
	var dLen int
	for i := 3; i >= 0; i-- {
		if d[i] != 0 {
			dLen = i + 1
			break
		}
	}

	shift := uint(bits.LeadingZeros64(d[dLen-1]))

	var dnStorage [4]uint64
	dn := dnStorage[:dLen]
	for i := dLen - 1; i > 0; i-- {
		dn[i] = d[i] << shift
		if shift > 0 {
			dn[i] |= d[i-1] >> (64 - shift)
		}
	}
	dn[0] = d[0] << shift

	var uLen int
	for i := len(u) - 1; i >= 0; i-- {
		if u[i] != 0 {
			uLen = i + 1
			break
		}
	}
	if uLen < dLen {
		copy(rem[:], u)
		return rem
	}

	// The widest dividend is umul's 8 limbs; one more holds the
	// normalising shift's overflow.
	var unStorage [9]uint64
	un := unStorage[:uLen+1]
	if shift > 0 {
		un[uLen] = u[uLen-1] >> (64 - shift)
	}
	for i := uLen - 1; i > 0; i-- {
		un[i] = u[i] << shift
		if shift > 0 {
			un[i] |= u[i-1] >> (64 - shift)
		}
	}
	un[0] = u[0] << shift

	if dLen == 1 {
		r := udivremBy1(quot, un, dn[0])
		rem.SetUint64(r >> shift)
		return rem
	}

	udivremKnuth(quot, un, dn)

	for i := 0; i < dLen-1; i++ {
		rem[i] = un[i] >> shift
		if shift > 0 {
			rem[i] |= un[i+1] << (64 - shift)
		}
	}
	rem[dLen-1] = un[dLen-1] >> shift

	return rem
}

// udivremBy1 divides un by the single normalized limb d, writing the
// quotient into quot and returning the remainder.
func udivremBy1(quot, un []uint64, d uint64) (rem uint64) {
	reciprocal := reciprocal2by1(d)
	rem = un[len(un)-1] // top limb is the running remainder
	for j := len(un) - 2; j >= 0; j-- {
		quot[j], rem = udivrem2by1(rem, un[j], d, reciprocal)
	}
	return rem
}

// reciprocal2by1 computes <^d, ^0> / d.
func reciprocal2by1(d uint64) uint64 {
	reciprocal, _ := bits.Div64(^d, ^uint64(0), d)
	return reciprocal
}

// udivrem2by1 divides <uh, ul> by d using the provided reciprocal,
// returning quotient and remainder. Requires d to be normalized.
func udivrem2by1(uh, ul, d, reciprocal uint64) (quot, rem uint64) {
	qh, ql := bits.Mul64(reciprocal, uh)
	ql, carry := bits.Add64(ql, ul, 0)
	qh, _ = bits.Add64(qh, uh, carry)
	qh++

	r := ul - qh*d

	if r > ql {
		qh--
		r += d
	}
	if r >= d {
		qh++
		r -= d
	}
	return qh, r
}

// udivremKnuth implements the multi-limb division loop of Knuth's
// Algorithm D. un has len(u)+1 limbs (normalized), dn has >= 2 limbs.
func udivremKnuth(quot, un, dn []uint64) {
	dh := dn[len(dn)-1]
	dl := dn[len(dn)-2]
	reciprocal := reciprocal2by1(dh)

	for j := len(un) - len(dn) - 1; j >= 0; j-- {
		u2 := un[j+len(dn)]
		u1 := un[j+len(dn)-1]
		u0 := un[j+len(dn)-2]

		var qhat, rhat uint64
		if u2 >= dh {
			qhat = ^uint64(0)
		} else {
			qhat, rhat = udivrem2by1(u2, u1, dh, reciprocal)
			ph, pl := bits.Mul64(qhat, dl)
			if ph > rhat || (ph == rhat && pl > u0) {
				qhat--
			}
		}

		borrow := subMulTo(un[j:j+len(dn)], dn, qhat)
		un[j+len(dn)] = u2 - borrow
		if u2 < borrow {
			// qhat was one too large; add back.
			qhat--
			un[j+len(dn)] += addTo(un[j:j+len(dn)], dn)
		}
		if j < len(quot) {
			quot[j] = qhat
		}
	}
}

// subMulTo computes x -= y * multiplier, returning the final borrow.
func subMulTo(x, y []uint64, multiplier uint64) uint64 {
	var borrow uint64
	for i := 0; i < len(y); i++ {
		s, carry1 := bits.Sub64(x[i], borrow, 0)
		ph, pl := bits.Mul64(y[i], multiplier)
		t, carry2 := bits.Sub64(s, pl, 0)
		x[i] = t
		borrow = ph + carry1 + carry2
	}
	return borrow
}

// addTo computes x += y, returning the final carry.
func addTo(x, y []uint64) uint64 {
	var carry uint64
	for i := 0; i < len(y); i++ {
		x[i], carry = bits.Add64(x[i], y[i], carry)
	}
	return carry
}
