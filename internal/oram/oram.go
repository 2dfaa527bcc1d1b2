// Package oram implements Path ORAM (Stefanov & Shi), the backbone of
// HarDTAPE's world-state access-pattern protection (paper §IV-D).
//
// Data is stored as fixed 1 KB blocks (the paper's page size) in a
// binary tree of Z=4 buckets held by an untrusted server. The trusted
// client (part of the Hypervisor) keeps the stash and position map
// on-chip. Every access reads and rewrites one root-to-leaf path with
// randomized re-encryption, so the server observes only a uniform
// sequence of leaf indices and fresh ciphertexts.
package oram

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Protocol constants.
const (
	// BlockSize is the paper's 1 KB ORAM block (page) size.
	BlockSize = 1024
	// BucketSize is Z, the blocks per bucket.
	BucketSize = 4
	// slotHeader is the per-slot metadata: block id (8) + leaf (8).
	slotHeader = 16
	// bucketPlain is the plaintext size of a serialized bucket.
	bucketPlain = BucketSize * (slotHeader + BlockSize)
	// KeySize is the AES-256 key length for bucket encryption.
	KeySize = 32
	// dummyID marks an empty slot.
	dummyID = ^uint64(0)
)

// Errors.
var (
	ErrBadKey       = errors.New("oram: key must be 32 bytes")
	ErrCapacity     = errors.New("oram: capacity must be at least 2 blocks")
	ErrBlockTooBig  = errors.New("oram: block data exceeds BlockSize")
	ErrTampered     = errors.New("oram: bucket authentication failed")
	ErrBadBucket    = errors.New("oram: malformed bucket")
	ErrStashOverrun = errors.New("oram: stash exceeded safety bound")
)

// BlockID is a dense ORAM block index. The pager maps Ethereum's
// sparse keys onto these.
type BlockID uint64

// block is one stash-resident data block.
type block struct {
	id   BlockID
	leaf uint64
	data []byte // exactly BlockSize
}

// bucket is one tree node's plaintext contents.
type bucket struct {
	slots [BucketSize]block
}

// serializeInto encodes the bucket to its fixed plaintext layout in a
// caller-owned bucketPlain buffer. Dummy-slot data regions are zeroed so
// a reused buffer never carries stale plaintext into the next seal.
func (b *bucket) serializeInto(out []byte) {
	off := 0
	for _, s := range b.slots {
		binary.BigEndian.PutUint64(out[off:], uint64(s.id))
		binary.BigEndian.PutUint64(out[off+8:], s.leaf)
		body := out[off+slotHeader : off+slotHeader+BlockSize]
		if s.data == nil {
			for i := range body {
				body[i] = 0
			}
		} else {
			copy(body, s.data)
		}
		off += slotHeader + BlockSize
	}
}

// parseBucketInto decodes the fixed plaintext layout into a
// caller-owned bucket (one bucket per decrypt; a fresh struct per call
// would escape to the heap every time). Slot data ALIASES the input
// buffer (no copy): callers that retain blocks past the lifetime of
// data must copy them out first.
func parseBucketInto(b *bucket, data []byte) error {
	if len(data) != bucketPlain {
		return fmt.Errorf("%w: plaintext length %d", ErrBadBucket, len(data))
	}
	off := 0
	for i := range b.slots {
		b.slots[i].id = BlockID(binary.BigEndian.Uint64(data[off:]))
		b.slots[i].leaf = binary.BigEndian.Uint64(data[off+8:])
		if uint64(b.slots[i].id) != dummyID {
			b.slots[i].data = data[off+slotHeader : off+slotHeader+BlockSize]
		} else {
			b.slots[i].data = nil
		}
		off += slotHeader + BlockSize
	}
	return nil
}

// --- buffer pools -------------------------------------------------------
//
// sealInto/openInto/parseBucketInto run once per bucket per access; at depth d and
// Z=4 that is 2d seals + up to d opens per logical access. Pooling the
// three hot buffer classes (1 KB block bodies, bucketPlain plaintexts,
// bucketPlain+overhead ciphertexts) removes them from the allocation
// profile entirely.

// The pools store POINTERS TO FIXED-SIZE ARRAYS, not slices: a pointer
// fits an interface word, so Get/Put are allocation-free, where putting
// a []byte would box the slice header on every Put.

var blockBufPool = sync.Pool{
	New: func() any { return new([BlockSize]byte) },
}

// getBlockBuf returns a BlockSize scratch buffer (contents undefined).
func getBlockBuf() []byte { return blockBufPool.Get().(*[BlockSize]byte)[:] }

// putBlockBuf recycles a buffer previously returned by getBlockBuf.
func putBlockBuf(b []byte) {
	if len(b) == BlockSize && cap(b) == BlockSize {
		blockBufPool.Put((*[BlockSize]byte)(b))
	}
}

// blockStructPool recycles stash block structs; their data buffers
// come from blockBufPool and move ownership on eviction.
var blockStructPool = sync.Pool{
	New: func() any { return new(block) },
}

// getBlockStruct returns a stash block with a pooled BlockSize data
// buffer attached (contents undefined).
func getBlockStruct() *block {
	b := blockStructPool.Get().(*block)
	if b.data == nil {
		b.data = getBlockBuf()
	}
	return b
}

// putBlockStruct recycles a stash block struct. The caller must have
// taken ownership of (or recycled) the data buffer and set it nil if
// it is no longer this block's to keep.
func putBlockStruct(b *block) {
	blockStructPool.Put(b)
}

var plainBufPool = sync.Pool{
	New: func() any { return new([bucketPlain]byte) },
}

func getPlainBuf() []byte { return plainBufPool.Get().(*[bucketPlain]byte)[:] }

func putPlainBuf(b []byte) {
	if len(b) == bucketPlain && cap(b) == bucketPlain {
		plainBufPool.Put((*[bucketPlain]byte)(b))
	}
}

// cipherBufCap covers nonce + bucketPlain + GCM tag with headroom. Wire
// and server bucket copies share this pool: every sealed bucket fits,
// and it is the bucket size limit of every store and wire decoder.
const cipherBufCap = bucketPlain + 64

var cipherBufPool = sync.Pool{
	New: func() any { return new([cipherBufCap]byte) },
}

func getCipherBuf() []byte {
	p := cipherBufPool.Get().(*[cipherBufCap]byte)
	return p[:0]
}

func putCipherBuf(b []byte) {
	if cap(b) == cipherBufCap {
		cipherBufPool.Put((*[cipherBufCap]byte)(b[:cipherBufCap]))
	}
}

// cryptor performs the randomized re-encryption of buckets (AES-GCM:
// fresh nonce every write, so identical plaintexts are unlinkable, and
// any off-chip tampering is detected — paper attack A6).
//
// Nonces are drawn from the CSPRNG in bulk: one rand.Read refills a
// scratch block covering many seals, amortizing the getrandom syscall
// over a whole path (or batch) eviction. Each seal still consumes
// fresh, never-reused CSPRNG output. The cryptor is used under its
// tree's lock.
type cryptor struct {
	aead     cipher.AEAD
	nonceBuf [32 * 16]byte
	nonceOff int
	// adBuf is the associated-data scratch; a local array would escape
	// through the cipher.AEAD interface and allocate on every call.
	adBuf [8]byte
}

func newCryptor(key []byte) (*cryptor, error) {
	if len(key) != KeySize {
		return nil, ErrBadKey
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("oram: %w", err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, fmt.Errorf("oram: %w", err)
	}
	c := &cryptor{aead: aead}
	c.nonceOff = len(c.nonceBuf) // force a refill on first use
	return c, nil
}

// nextNonce returns ns bytes of fresh CSPRNG output, refilling the
// bulk buffer when exhausted.
func (c *cryptor) nextNonce(ns int) ([]byte, error) {
	if c.nonceOff+ns > len(c.nonceBuf) {
		if _, err := rand.Read(c.nonceBuf[:]); err != nil {
			return nil, fmt.Errorf("oram: nonce: %w", err)
		}
		c.nonceOff = 0
	}
	n := c.nonceBuf[c.nonceOff : c.nonceOff+ns]
	c.nonceOff += ns
	return n, nil
}

// sealInto encrypts a bucket plaintext with a fresh random nonce and
// appends nonce||ciphertext to dst (pass a pooled buffer truncated to
// length 0 to avoid the allocation). The bucket index is bound as
// associated data to prevent relocation.
func (c *cryptor) sealInto(bucketIdx uint64, plaintext, dst []byte) ([]byte, error) {
	nonce, err := c.nextNonce(c.aead.NonceSize())
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(c.adBuf[:], bucketIdx)
	dst = append(dst, nonce...)
	return c.aead.Seal(dst, nonce, plaintext, c.adBuf[:]), nil
}

// openInto decrypts and authenticates a bucket ciphertext, appending
// the plaintext to dst (pass a pooled buffer truncated to length 0 to
// avoid the allocation).
func (c *cryptor) openInto(bucketIdx uint64, ciphertext, dst []byte) ([]byte, error) {
	ns := c.aead.NonceSize()
	if len(ciphertext) < ns {
		return nil, ErrTampered
	}
	binary.BigEndian.PutUint64(c.adBuf[:], bucketIdx)
	pt, err := c.aead.Open(dst, ciphertext[:ns], ciphertext[ns:], c.adBuf[:])
	if err != nil {
		return nil, ErrTampered
	}
	return pt, nil
}

// pathIndices returns the bucket indices from the root to the given
// leaf in a 1-indexed heap layout (root = 1).
func pathIndices(leaf uint64, depth int) []uint64 {
	out := make([]uint64, depth)
	node := leaf + (uint64(1) << (depth - 1)) // leaf's heap index
	for i := depth - 1; i >= 0; i-- {
		out[i] = node
		node /= 2
	}
	return out
}

// pathIndicesInto is pathIndices writing into a caller-owned slice of
// length depth.
func pathIndicesInto(leaf uint64, depth int, out []uint64) {
	node := leaf + (uint64(1) << (depth - 1))
	for i := depth - 1; i >= 0; i-- {
		out[i] = node
		node /= 2
	}
}

// intersectLevel returns the deepest tree level (0 = root) shared by
// the paths to leaves a and b: the level below which the two paths
// diverge. Equal leaves share the whole path (depth-1).
func intersectLevel(a, b uint64, depth int) int {
	if a == b {
		return depth - 1
	}
	return depth - 1 - bits.Len64(a^b)
}

// treeDepth returns the number of levels needed for capacity blocks:
// leaves ≥ capacity/BucketSize with a minimum of 2 levels.
func treeDepth(capacity uint64) int {
	leaves := (capacity + BucketSize - 1) / BucketSize
	depth := 1
	for (uint64(1) << (depth - 1)) < leaves {
		depth++
	}
	if depth < 2 {
		depth = 2
	}
	return depth
}
