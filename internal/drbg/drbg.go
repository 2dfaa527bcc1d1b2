// Package drbg is the one randomness seam behind every draw the
// adversary must not predict: the HEVM's swap noise (§IV-B, A5), the
// prefetcher's interval (§IV-D) and Path ORAM's leaf remaps. A
// generator is AES-CTR, the stand-in for the Manufacturer's secure RNG,
// so observed outputs reveal nothing about later ones.
//
// Seed 0 keys a generator from crypto/rand (deployment). A non-zero
// seed keys it by (label, seed+index), so a model run repeats exactly
// and hides nothing from whoever knows the seed.
package drbg

import (
	"crypto/aes"
	"crypto/cipher"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Rand is one keyed AES-CTR stream. It is not safe for concurrent
// use: each owner (a lane, a tree) draws under its own serialization.
type Rand struct {
	stream cipher.Stream
	// buf ends in left bytes of keystream not yet drawn. A field,
	// because a stack buffer passed through cipher.Stream escapes.
	buf  [256]byte
	left int
}

// New returns the generator for (label, index): keyed from crypto/rand
// when seed is 0 whatever the index, else by sha256(label ‖
// be64(seed+index)).
func New(seed int64, label string, index int) (*Rand, error) {
	var key [32]byte
	if seed == 0 {
		if _, err := crand.Read(key[:]); err != nil {
			return nil, fmt.Errorf("drbg: %s key: %w", label, err)
		}
	} else {
		h := sha256.New()
		h.Write([]byte(label))
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(seed+int64(index))))
		h.Sum(key[:0])
	}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("drbg: %s cipher: %w", label, err)
	}
	return &Rand{stream: cipher.NewCTR(blk, make([]byte, aes.BlockSize))}, nil
}

// Uint64n returns a uniform value in [0, n) by rejection sampling over
// 64-bit big-endian keystream words: a biased noise or leaf
// distribution would itself be a distinguisher. n = 0 divides by zero.
func (r *Rand) Uint64n(n uint64) uint64 {
	limit := math.MaxUint64 - math.MaxUint64%n
	for {
		if r.left == 0 {
			clear(r.buf[:])
			r.stream.XORKeyStream(r.buf[:], r.buf[:])
			r.left = len(r.buf)
		}
		r.left -= 8
		if v := binary.BigEndian.Uint64(r.buf[len(r.buf)-r.left-8:]); v < limit {
			return v % n
		}
	}
}

// Intn is Uint64n for an int bound, n > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("drbg: bound must be positive")
	}
	return int(r.Uint64n(uint64(n)))
}
