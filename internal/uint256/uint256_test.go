package uint256

import (
	"math/big"
	"testing"
	"testing/quick"
)

var _twoTo256 = new(big.Int).Lsh(big.NewInt(1), 256)

func mod256(b *big.Int) *big.Int {
	return new(big.Int).Mod(b, _twoTo256)
}

// limbs lets testing/quick generate arbitrary 256-bit values.
type limbs struct {
	A, B, C, D uint64
}

func (l limbs) int() *Int {
	return &Int{l.A, l.B, l.C, l.D}
}

func TestBasicRoundTrip(t *testing.T) {
	tests := []string{
		"0x0", "0x1", "0xff", "0x100",
		"0xffffffffffffffff",
		"0x10000000000000000",
		"0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
		"0xdeadbeefcafebabe0123456789abcdef00000000000000000000000000000001",
	}
	for _, s := range tests {
		z, err := FromHex(s)
		if err != nil {
			t.Fatalf("FromHex(%q): %v", s, err)
		}
		b, ok := new(big.Int).SetString(s[2:], 16)
		if !ok {
			t.Fatalf("big parse %q", s)
		}
		if z.ToBig().Cmp(b) != 0 {
			t.Errorf("round trip %q: got %s want %s", s, z.ToBig(), b)
		}
	}
}

func TestFromHexErrors(t *testing.T) {
	for _, s := range []string{"", "123", "0x", "0xzz", "0x" + string(make([]byte, 100))} {
		if _, err := FromHex(s); err == nil {
			t.Errorf("FromHex(%q): expected error", s)
		}
	}
}

func TestSetBytes(t *testing.T) {
	z := new(Int).SetBytes([]byte{0x01, 0x02})
	if z.Uint64() != 0x0102 {
		t.Fatalf("SetBytes: got %x", z.Uint64())
	}
	// Longer than 32 bytes keeps low-order 32.
	buf := make([]byte, 40)
	buf[7] = 0xaa // dropped
	buf[39] = 0x05
	z.SetBytes(buf)
	if !z.Eq(NewInt(5)) {
		t.Fatalf("SetBytes long: got %s", z)
	}
}

func TestBytes32(t *testing.T) {
	z := MustFromHex("0x0102030405")
	b := z.Bytes32()
	if b[31] != 0x05 || b[27] != 0x01 || b[0] != 0 {
		t.Fatalf("Bytes32: %x", b)
	}
	if got := z.Bytes(); len(got) != 5 || got[0] != 0x01 {
		t.Fatalf("Bytes: %x", got)
	}
}

func TestSignExtendCases(t *testing.T) {
	tests := []struct {
		back, in, want string
	}{
		{"0x0", "0xff", "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"},
		{"0x0", "0x7f", "0x7f"},
		{"0x1", "0x8000", "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff8000"},
		{"0x1", "0x7fff", "0x7fff"},
		{"0x1f", "0xff", "0xff"},
		{"0x20", "0xff", "0xff"},
	}
	for _, tt := range tests {
		back := MustFromHex(tt.back)
		in := MustFromHex(tt.in)
		want := MustFromHex(tt.want)
		got := new(Int).SignExtend(back, in)
		if !got.Eq(want) {
			t.Errorf("SignExtend(%s, %s) = %s, want %s", tt.back, tt.in, got.Hex(), want.Hex())
		}
	}
}

func TestByteOp(t *testing.T) {
	x := MustFromHex("0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
	for i := uint64(0); i < 32; i++ {
		got := new(Int).Byte(NewInt(i), x)
		if got.Uint64() != i+1 {
			t.Errorf("Byte(%d) = %d, want %d", i, got.Uint64(), i+1)
		}
	}
	if got := new(Int).Byte(NewInt(32), x); !got.IsZero() {
		t.Errorf("Byte(32) = %s, want 0", got)
	}
	if got := new(Int).Byte(MustFromHex("0x10000000000000000"), x); !got.IsZero() {
		t.Errorf("Byte(2^64) = %s, want 0", got)
	}
}

func TestDivModEdgeCases(t *testing.T) {
	x := MustFromHex("0xdeadbeef")
	zero := new(Int)
	if got := new(Int).Div(x, zero); !got.IsZero() {
		t.Errorf("x/0 = %s, want 0", got)
	}
	if got := new(Int).Mod(x, zero); !got.IsZero() {
		t.Errorf("x%%0 = %s, want 0", got)
	}
	if got := new(Int).SDiv(x, zero); !got.IsZero() {
		t.Errorf("sdiv(x,0) = %s, want 0", got)
	}
	if got := new(Int).SMod(x, zero); !got.IsZero() {
		t.Errorf("smod(x,0) = %s, want 0", got)
	}
	// EVM edge: MIN_INT256 / -1 == MIN_INT256 (overflow wraps).
	minInt := MustFromHex("0x8000000000000000000000000000000000000000000000000000000000000000")
	negOne := new(Int).Not(new(Int))
	if got := new(Int).SDiv(minInt, negOne); !got.Eq(minInt) {
		t.Errorf("MIN/-1 = %s, want MIN", got.Hex())
	}
	if got := new(Int).AddMod(x, x, zero); !got.IsZero() {
		t.Errorf("addmod(_,_,0) = %s, want 0", got)
	}
	if got := new(Int).MulMod(x, x, zero); !got.IsZero() {
		t.Errorf("mulmod(_,_,0) = %s, want 0", got)
	}
}

func TestSignedComparisons(t *testing.T) {
	negOne := new(Int).Not(new(Int))
	one := NewInt(1)
	if !negOne.Slt(one) {
		t.Error("-1 slt 1 should be true")
	}
	if negOne.Sgt(one) {
		t.Error("-1 sgt 1 should be false")
	}
	if !one.Sgt(negOne) {
		t.Error("1 sgt -1 should be true")
	}
	negTwo := new(Int).Sub(negOne, one)
	if !negTwo.Slt(negOne) {
		t.Error("-2 slt -1 should be true")
	}
	if negOne.Sign() != -1 || one.Sign() != 1 || new(Int).Sign() != 0 {
		t.Error("Sign values wrong")
	}
}

// Property tests against math/big.

func TestQuickAddSubMul(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(a, b limbs) bool {
		x, y := a.int(), b.int()
		xb, yb := x.ToBig(), y.ToBig()
		if new(Int).Add(x, y).ToBig().Cmp(mod256(new(big.Int).Add(xb, yb))) != 0 {
			return false
		}
		if new(Int).Sub(x, y).ToBig().Cmp(mod256(new(big.Int).Sub(xb, yb))) != 0 {
			return false
		}
		return new(Int).Mul(x, y).ToBig().Cmp(mod256(new(big.Int).Mul(xb, yb))) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDivMod(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(a, b limbs) bool {
		x, y := a.int(), b.int()
		if y.IsZero() {
			return new(Int).Div(x, y).IsZero() && new(Int).Mod(x, y).IsZero()
		}
		xb, yb := x.ToBig(), y.ToBig()
		q := new(Int).Div(x, y)
		r := new(Int).Mod(x, y)
		return q.ToBig().Cmp(new(big.Int).Div(xb, yb)) == 0 &&
			r.ToBig().Cmp(new(big.Int).Mod(xb, yb)) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDivModSmallDivisor(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(a limbs, d uint64) bool {
		if d == 0 {
			return true
		}
		x, y := a.int(), NewInt(d)
		q := new(Int).Div(x, y)
		r := new(Int).Mod(x, y)
		xb := x.ToBig()
		return q.ToBig().Cmp(new(big.Int).Div(xb, y.ToBig())) == 0 &&
			r.ToBig().Cmp(new(big.Int).Mod(xb, y.ToBig())) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAddModMulMod(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}
	f := func(a, b, c limbs) bool {
		x, y, m := a.int(), b.int(), c.int()
		if m.IsZero() {
			return true
		}
		xb, yb, mb := x.ToBig(), y.ToBig(), m.ToBig()
		am := new(Int).AddMod(x, y, m)
		wantAdd := new(big.Int).Mod(new(big.Int).Add(xb, yb), mb)
		if am.ToBig().Cmp(wantAdd) != 0 {
			return false
		}
		mm := new(Int).MulMod(x, y, m)
		wantMul := new(big.Int).Mod(new(big.Int).Mul(xb, yb), mb)
		return mm.ToBig().Cmp(wantMul) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickExp(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(a limbs, e uint16) bool {
		base := a.int()
		exp := NewInt(uint64(e))
		got := new(Int).Exp(base, exp)
		want := new(big.Int).Exp(base.ToBig(), exp.ToBig(), _twoTo256)
		return got.ToBig().Cmp(want) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickShifts(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(a limbs, nRaw uint16) bool {
		x := a.int()
		n := uint(nRaw) % 300
		xb := x.ToBig()
		if new(Int).Lsh(x, n).ToBig().Cmp(mod256(new(big.Int).Lsh(xb, n))) != 0 {
			return false
		}
		if new(Int).Rsh(x, n).ToBig().Cmp(new(big.Int).Rsh(xb, n)) != 0 {
			return false
		}
		// Arithmetic shift: interpret as signed.
		signed := xb
		if x.Sign() < 0 {
			signed = new(big.Int).Sub(xb, _twoTo256)
		}
		want := mod256(new(big.Int).Rsh(signed, n))
		return new(Int).SRsh(x, n).ToBig().Cmp(want) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSignedDivMod(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	toSigned := func(x *Int) *big.Int {
		b := x.ToBig()
		if x.Sign() < 0 {
			b.Sub(b, _twoTo256)
		}
		return b
	}
	f := func(a, b limbs) bool {
		x, y := a.int(), b.int()
		if y.IsZero() {
			return true
		}
		xs, ys := toSigned(x), toSigned(y)
		q := new(Int).SDiv(x, y)
		r := new(Int).SMod(x, y)
		wantQ := mod256(new(big.Int).Quo(xs, ys))
		wantR := mod256(new(big.Int).Rem(xs, ys))
		return q.ToBig().Cmp(wantQ) == 0 && r.ToBig().Cmp(wantR) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBitwise(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}
	f := func(a, b limbs) bool {
		x, y := a.int(), b.int()
		xb, yb := x.ToBig(), y.ToBig()
		return new(Int).And(x, y).ToBig().Cmp(new(big.Int).And(xb, yb)) == 0 &&
			new(Int).Or(x, y).ToBig().Cmp(new(big.Int).Or(xb, yb)) == 0 &&
			new(Int).Xor(x, y).ToBig().Cmp(new(big.Int).Xor(xb, yb)) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripBytes(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}
	f := func(a limbs) bool {
		x := a.int()
		b := x.Bytes32()
		y := new(Int).SetBytes(b[:])
		return x.Eq(y) && x.ToBig().Cmp(y.ToBig()) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSignExtend(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}
	f := func(a limbs, backRaw uint8) bool {
		x := a.int()
		back := uint64(backRaw) % 33
		got := new(Int).SignExtend(NewInt(back), x)
		if back >= 31 {
			return got.Eq(x)
		}
		// Reference: truncate to (back+1) bytes, sign extend via big.Int.
		nBytes := int(back) + 1
		full := x.Bytes32()
		trunc := new(big.Int).SetBytes(full[32-nBytes:])
		signBit := new(big.Int).Lsh(big.NewInt(1), uint(nBytes*8-1))
		if trunc.Cmp(signBit) >= 0 {
			trunc.Sub(trunc, new(big.Int).Lsh(big.NewInt(1), uint(nBytes*8)))
		}
		want := mod256(trunc)
		return got.ToBig().Cmp(want) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCmpAndOrdering(t *testing.T) {
	a := MustFromHex("0x1")
	b := MustFromHex("0x10000000000000000") // 2^64
	if !a.Lt(b) || b.Lt(a) || a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("ordering broken across limb boundaries")
	}
}

func TestOverflowReporting(t *testing.T) {
	max := new(Int).Not(new(Int))
	one := NewInt(1)
	if _, overflow := new(Int).AddOverflow(max, one); !overflow {
		t.Error("AddOverflow(max, 1) should overflow")
	}
	if _, overflow := new(Int).AddOverflow(one, one); overflow {
		t.Error("AddOverflow(1, 1) should not overflow")
	}
	if _, underflow := new(Int).SubOverflow(new(Int), one); !underflow {
		t.Error("SubOverflow(0, 1) should underflow")
	}
	big3 := new(big.Int).Lsh(big.NewInt(1), 300)
	if _, overflow := FromBig(big3); !overflow {
		t.Error("FromBig(2^300) should report overflow")
	}
}

func TestStringersAndLens(t *testing.T) {
	z := MustFromHex("0xff00")
	if z.String() != "65280" {
		t.Errorf("String = %q", z.String())
	}
	if z.Hex() != "0xff00" {
		t.Errorf("Hex = %q", z.Hex())
	}
	if new(Int).Hex() != "0x0" {
		t.Errorf("zero Hex = %q", new(Int).Hex())
	}
	if z.BitLen() != 16 || z.ByteLen() != 2 {
		t.Errorf("BitLen/ByteLen = %d/%d", z.BitLen(), z.ByteLen())
	}
	if new(Int).BitLen() != 0 {
		t.Error("zero BitLen should be 0")
	}
}

// Division keeps its normalised dividend on the stack, so the EVM's
// DIV/MOD/ADDMOD/MULMOD and the curve arithmetic built on them never
// touch the heap, whatever the operands' widths.
func TestDivisionDoesNotAllocate(t *testing.T) {
	x := MustFromHex("0xfedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210")
	y := MustFromHex("0x123456789abcdef0123456789abcdef0123456789abcdef")
	m := MustFromHex("0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
	small := NewInt(0x1234567)
	var z Int
	allocs := testing.AllocsPerRun(100, func() {
		for _, d := range []*Int{y, m, small} {
			z.Div(x, d)
			z.Mod(x, d)
			z.AddMod(x, m, d)
			z.MulMod(x, x, d)
		}
	})
	if allocs != 0 {
		t.Errorf("Div/Mod/AddMod/MulMod: %v allocs per run, want 0", allocs)
	}
}

func BenchmarkAdd(b *testing.B) {
	x := MustFromHex("0xdeadbeefcafebabe0123456789abcdef00000000000000000000000000000001")
	y := MustFromHex("0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff")
	z := new(Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Add(x, y)
	}
}

func BenchmarkMul(b *testing.B) {
	x := MustFromHex("0xdeadbeefcafebabe0123456789abcdef00000000000000000000000000000001")
	y := MustFromHex("0x123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0")
	z := new(Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Mul(x, y)
	}
}

func BenchmarkDiv(b *testing.B) {
	x := MustFromHex("0xdeadbeefcafebabe0123456789abcdef00000000000000000000000000000001")
	y := MustFromHex("0x123456789abcdef0123456789")
	z := new(Int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Div(x, y)
	}
}
