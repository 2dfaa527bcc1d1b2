// Package keccak implements the Keccak-256 hash function as used by
// Ethereum (the original Keccak submission padding, not the final
// SHA3-256 FIPS-202 padding).
package keccak

import (
	"encoding/binary"
	"sync"
)

const (
	// Size is the digest size of Keccak-256 in bytes.
	Size = 32
	// rate is the sponge rate for Keccak-256: 1600/8 - 2*Size.
	rate = 136
)

// roundConstants are the 24 keccak-f[1600] iota round constants.
var _roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a,
	0x8000000080008000, 0x000000000000808b, 0x0000000080000001,
	0x8000000080008081, 0x8000000000008009, 0x000000000000008a,
	0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089,
	0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
	0x000000000000800a, 0x800000008000000a, 0x8000000080008081,
	0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// state is a keccak sponge absorbing into a 1600-bit state.
type state struct {
	a      [25]uint64
	buf    [rate]byte
	bufLen int
}

// Sum256 computes the Keccak-256 digest of data.
func Sum256(data []byte) [Size]byte {
	var s state
	_, _ = s.Write(data)
	var out [Size]byte
	s.sumInto(out[:])
	return out
}

// spongePool recycles sponges for the Into helpers below; sponges are
// returned reset, so Get yields a ready-to-absorb state.
var spongePool = sync.Pool{New: func() any { return new(state) }}

// Sum256Into computes the Keccak-256 digest of data into out (which
// must hold at least Size bytes) using a pooled sponge: no per-call
// sponge setup and no digest copies, for hot paths that hash per
// opcode or per trie node.
func Sum256Into(out []byte, data []byte) {
	h := spongePool.Get().(*state)
	_, _ = h.Write(data)
	h.sumInto(out)
	h.Reset()
	spongePool.Put(h)
}

// HashInto is Sum256Into over the concatenation of multiple slices
// (CREATE2's 0xff ++ sender ++ salt ++ codeHash preimage).
func HashInto(out []byte, data ...[]byte) {
	h := spongePool.Get().(*state)
	for _, d := range data {
		_, _ = h.Write(d)
	}
	h.sumInto(out)
	h.Reset()
	spongePool.Put(h)
}

// Write absorbs p into the sponge. It never fails.
func (s *state) Write(p []byte) (int, error) {
	n := len(p)
	// Finish a partially filled buffer first.
	if s.bufLen > 0 {
		space := rate - s.bufLen
		if space > len(p) {
			space = len(p)
		}
		copy(s.buf[s.bufLen:], p[:space])
		s.bufLen += space
		p = p[space:]
		if s.bufLen == rate {
			s.absorbBlock(s.buf[:])
			s.bufLen = 0
		}
	}
	// Absorb full blocks straight from the input, no staging copy.
	for len(p) >= rate {
		s.absorbBlock(p[:rate])
		p = p[rate:]
	}
	if len(p) > 0 {
		copy(s.buf[:], p)
		s.bufLen = len(p)
	}
	return n, nil
}

// Reset resets the sponge to its initial state.
func (s *state) Reset() {
	*s = state{}
}

// sumInto finalizes the sponge (destructively) and writes the digest.
func (s *state) sumInto(out []byte) {
	// Keccak (pre-FIPS) padding: 0x01 ... 0x80.
	s.buf[s.bufLen] = 0x01
	for i := s.bufLen + 1; i < rate; i++ {
		s.buf[i] = 0
	}
	s.buf[rate-1] |= 0x80
	s.absorbBlock(s.buf[:])
	s.bufLen = 0

	binary.LittleEndian.PutUint64(out[0:], s.a[0])
	binary.LittleEndian.PutUint64(out[8:], s.a[1])
	binary.LittleEndian.PutUint64(out[16:], s.a[2])
	binary.LittleEndian.PutUint64(out[24:], s.a[3])
}

// absorbBlock XORs one rate-sized block into the state and permutes.
func (s *state) absorbBlock(block []byte) {
	_ = block[rate-1]
	for i := 0; i < rate/8; i++ {
		s.a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	keccakF1600(&s.a)
}

// rotl64 rotates x left by n bits.
func rotl64(x uint64, n uint) uint64 {
	return x<<n | x>>(64-n)
}

// keccakF1600 applies the 24-round keccak-f[1600] permutation. The
// round body is fully unrolled (theta, rho+pi, chi fused per lane):
// the generic nested-loop form spends most of its time on the %5
// index arithmetic, and this routine is the single hottest function
// under KECCAK256-heavy contracts, CREATE2, and MPT root hashing.
func keccakF1600(a *[25]uint64) {
	var b [25]uint64
	for round := 0; round < 24; round++ {
		// Theta.
		c0 := a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
		c1 := a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
		c2 := a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
		c3 := a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
		c4 := a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
		d0 := c4 ^ rotl64(c1, 1)
		d1 := c0 ^ rotl64(c2, 1)
		d2 := c1 ^ rotl64(c3, 1)
		d3 := c2 ^ rotl64(c4, 1)
		d4 := c3 ^ rotl64(c0, 1)
		// Rho and Pi.
		b[0] = a[0] ^ d0
		b[16] = rotl64(a[5]^d0, 36)
		b[7] = rotl64(a[10]^d0, 3)
		b[23] = rotl64(a[15]^d0, 41)
		b[14] = rotl64(a[20]^d0, 18)
		b[10] = rotl64(a[1]^d1, 1)
		b[1] = rotl64(a[6]^d1, 44)
		b[17] = rotl64(a[11]^d1, 10)
		b[8] = rotl64(a[16]^d1, 45)
		b[24] = rotl64(a[21]^d1, 2)
		b[20] = rotl64(a[2]^d2, 62)
		b[11] = rotl64(a[7]^d2, 6)
		b[2] = rotl64(a[12]^d2, 43)
		b[18] = rotl64(a[17]^d2, 15)
		b[9] = rotl64(a[22]^d2, 61)
		b[5] = rotl64(a[3]^d3, 28)
		b[21] = rotl64(a[8]^d3, 55)
		b[12] = rotl64(a[13]^d3, 25)
		b[3] = rotl64(a[18]^d3, 21)
		b[19] = rotl64(a[23]^d3, 56)
		b[15] = rotl64(a[4]^d4, 27)
		b[6] = rotl64(a[9]^d4, 20)
		b[22] = rotl64(a[14]^d4, 39)
		b[13] = rotl64(a[19]^d4, 8)
		b[4] = rotl64(a[24]^d4, 14)
		// Chi.
		a[0] = b[0] ^ (^b[1] & b[2])
		a[1] = b[1] ^ (^b[2] & b[3])
		a[2] = b[2] ^ (^b[3] & b[4])
		a[3] = b[3] ^ (^b[4] & b[0])
		a[4] = b[4] ^ (^b[0] & b[1])
		a[5] = b[5] ^ (^b[6] & b[7])
		a[6] = b[6] ^ (^b[7] & b[8])
		a[7] = b[7] ^ (^b[8] & b[9])
		a[8] = b[8] ^ (^b[9] & b[5])
		a[9] = b[9] ^ (^b[5] & b[6])
		a[10] = b[10] ^ (^b[11] & b[12])
		a[11] = b[11] ^ (^b[12] & b[13])
		a[12] = b[12] ^ (^b[13] & b[14])
		a[13] = b[13] ^ (^b[14] & b[10])
		a[14] = b[14] ^ (^b[10] & b[11])
		a[15] = b[15] ^ (^b[16] & b[17])
		a[16] = b[16] ^ (^b[17] & b[18])
		a[17] = b[17] ^ (^b[18] & b[19])
		a[18] = b[18] ^ (^b[19] & b[15])
		a[19] = b[19] ^ (^b[15] & b[16])
		a[20] = b[20] ^ (^b[21] & b[22])
		a[21] = b[21] ^ (^b[22] & b[23])
		a[22] = b[22] ^ (^b[23] & b[24])
		a[23] = b[23] ^ (^b[24] & b[20])
		a[24] = b[24] ^ (^b[20] & b[21])
		// Iota.
		a[0] ^= _roundConstants[round]
	}
}
