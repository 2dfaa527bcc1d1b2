package oram

import (
	"fmt"
	"sync"
)

// Server is the untrusted bucket store run by the service provider. It
// sees only encrypted buckets and the sequence of path indices — the
// exact adversary view the paper's obliviousness argument is about.
type Server interface {
	// ReadPath returns the encrypted buckets along the path to leaf,
	// root first.
	ReadPath(leaf uint64) ([][]byte, error)
	// WritePath stores the encrypted buckets along the path to leaf,
	// root first.
	WritePath(leaf uint64, buckets [][]byte) error
	// ReadPaths returns the encrypted buckets along each leaf's path in
	// one server round trip (batched transports pay one link RTT for
	// the whole set). The result is aligned with leaves.
	ReadPaths(leaves []uint64) ([][][]byte, error)
	// WritePaths stores the encrypted buckets along each leaf's path in
	// one server round trip. Buckets shared between paths carry
	// identical ciphertexts, so write order within the batch is
	// immaterial.
	WritePaths(leaves []uint64, paths [][][]byte) error
	// Depth returns the tree depth (levels).
	Depth() int
	// Leaves returns the number of leaves.
	Leaves() uint64
}

// AccessEvent is what the adversary observes per path operation.
type AccessEvent struct {
	// Seq is the operation sequence number.
	Seq uint64
	// Leaf is the observed path.
	Leaf uint64
	// Write distinguishes path reads from path writes (every logical
	// access produces one of each).
	Write bool
}

// nodeBackend is the part of a bucket store that differs between
// deployments: how one heap node (1-indexed) is loaded and stored.
// pathStore calls it with its lock held.
type nodeBackend interface {
	// readNode returns a caller-owned, cipher-pool copy of the node's
	// ciphertext, or nil for a never-written node.
	readNode(node uint64) ([]byte, error)
	// writeNode stores a copy of ct (at most cipherBufCap bytes).
	writeNode(node uint64, ct []byte) error
}

// pathStore is the path server every bucket store embeds: the lock,
// tree geometry, adversary-visible sequence, request validation and the
// four Server path methods, over a nodeBackend. It is safe for
// concurrent use by multiple clients (Path ORAM is stateless
// server-side, paper §II-C).
type pathStore struct {
	mu     sync.Mutex
	nodes  nodeBackend
	depth  int
	leaves uint64
	seq    uint64
	// idxScratch holds one path's node indices; guarded by mu.
	idxScratch []uint64
	// observer receives the adversary-visible trace; may be nil.
	observer func(AccessEvent)
}

// init sizes the store for a block capacity over the given node backend.
func (s *pathStore) init(capacity uint64, nodes nodeBackend) error {
	if capacity < 2 {
		return ErrCapacity
	}
	s.nodes = nodes
	s.depth = treeDepth(capacity)
	s.leaves = uint64(1) << (s.depth - 1)
	s.idxScratch = make([]uint64, s.depth)
	return nil
}

// SetObserver installs the adversary's tap on the access sequence.
func (s *pathStore) SetObserver(fn func(AccessEvent)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// Depth implements Server.
func (s *pathStore) Depth() int { return s.depth }

// Leaves implements Server.
func (s *pathStore) Leaves() uint64 { return s.leaves }

// observeLocked validates leaf and emits the adversary's event for one
// path operation.
func (s *pathStore) observeLocked(leaf uint64, write bool) error {
	if leaf >= s.leaves {
		return fmt.Errorf("oram: leaf %d out of range (%d leaves)", leaf, s.leaves)
	}
	s.seq++
	if s.observer != nil {
		s.observer(AccessEvent{Seq: s.seq, Leaf: leaf, Write: write})
	}
	pathIndicesInto(leaf, s.depth, s.idxScratch)
	return nil
}

// readPathLocked fills out (length depth) with the path's buckets, root
// first. The copies are caller-owned and fit the shared cipher pool, so
// consumers can recycle them after decoding.
func (s *pathStore) readPathLocked(leaf uint64, out [][]byte) error {
	if err := s.observeLocked(leaf, false); err != nil {
		return err
	}
	for i, node := range s.idxScratch {
		ct, err := s.nodes.readNode(node)
		if err != nil {
			return err
		}
		out[i] = ct
	}
	return nil
}

func (s *pathStore) writePathLocked(leaf uint64, buckets [][]byte) error {
	if len(buckets) != s.depth {
		return fmt.Errorf("oram: WritePath got %d buckets, want %d", len(buckets), s.depth)
	}
	for _, ct := range buckets {
		if len(ct) > cipherBufCap {
			// Larger than any seal can produce, and than a pool buffer or
			// an on-disk record can hold.
			return fmt.Errorf("%w: %d-byte bucket ciphertext", ErrBadBucket, len(ct))
		}
	}
	if err := s.observeLocked(leaf, true); err != nil {
		return err
	}
	for i, node := range s.idxScratch {
		if err := s.nodes.writeNode(node, buckets[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadPath implements Server: ReadPaths for one leaf, without the outer
// slice.
func (s *pathStore) ReadPath(leaf uint64) ([][]byte, error) {
	out := make([][]byte, s.depth)
	if err := s.readInto([]uint64{leaf}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPaths implements Server. The batch is served under one lock
// acquisition; the adversary trace still records one event per path.
// All per-path bucket lists share one flat backing allocation.
func (s *pathStore) ReadPaths(leaves []uint64) ([][][]byte, error) {
	flat := make([][]byte, len(leaves)*s.depth)
	if err := s.readInto(leaves, flat); err != nil {
		return nil, err
	}
	out := make([][][]byte, len(leaves))
	for i := range out {
		out[i] = flat[i*s.depth : (i+1)*s.depth]
	}
	return out, nil
}

// readInto serves each leaf's path into its depth-sized window of flat.
func (s *pathStore) readInto(leaves []uint64, flat [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, leaf := range leaves {
		if err := s.readPathLocked(leaf, flat[i*s.depth:(i+1)*s.depth]); err != nil {
			return err
		}
	}
	return nil
}

// WritePath implements Server: WritePaths for one leaf.
func (s *pathStore) WritePath(leaf uint64, buckets [][]byte) error {
	return s.WritePaths([]uint64{leaf}, [][][]byte{buckets})
}

// WritePaths implements Server.
func (s *pathStore) WritePaths(leaves []uint64, paths [][][]byte) error {
	if len(paths) != len(leaves) {
		return fmt.Errorf("oram: WritePaths got %d paths for %d leaves", len(paths), len(leaves))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, leaf := range leaves {
		if err := s.writePathLocked(leaf, paths[i]); err != nil {
			return err
		}
	}
	return nil
}

// TamperBucket flips a byte in a stored bucket (test hook modelling the
// paper's A6 adversary against whichever store is behind it).
func (s *pathStore) TamperBucket(leaf uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, node := range pathIndices(leaf, s.depth) {
		ct, err := s.nodes.readNode(node)
		if err != nil || len(ct) == 0 {
			continue
		}
		ct[len(ct)-1] ^= 0x01
		//hardtape:faulterr-ok test-only corruption injector; a failed write just leaves the bucket intact
		_ = s.nodes.writeNode(node, ct)
		putCipherBuf(ct)
		return
	}
}

// MemServer is an in-memory Server with an adversary-observable access
// log: a pathStore over one byte slice per node.
type MemServer struct {
	pathStore
	buckets [][]byte // heap layout, 1-indexed (index 0 unused)
}

var _ Server = (*MemServer)(nil)

// NewMemServer creates a server sized for the given block capacity.
func NewMemServer(capacity uint64) (*MemServer, error) {
	s := &MemServer{}
	if err := s.init(capacity, s); err != nil {
		return nil, err
	}
	s.buckets = make([][]byte, uint64(1)<<s.depth) // 1-indexed heap with 2^depth-1 nodes
	return s, nil
}

func (s *MemServer) readNode(node uint64) ([]byte, error) {
	b := s.buckets[node]
	if len(b) == 0 {
		return nil, nil
	}
	cp := getCipherBuf()[:len(b)]
	copy(cp, b)
	return cp, nil
}

func (s *MemServer) writeNode(node uint64, ct []byte) error {
	// Reuse the stored slice's capacity: bucket ciphertexts are a
	// stable size, so steady-state writes allocate nothing.
	s.buckets[node] = append(s.buckets[node][:0], ct...)
	return nil
}

// StoredBytes reports the server's total ciphertext footprint.
func (s *MemServer) StoredBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, b := range s.buckets {
		total += uint64(len(b))
	}
	return total
}
