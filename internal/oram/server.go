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
	// root first: ReadPaths of one leaf. The client never calls it; every
	// round it runs is one ReadPaths and one WritePaths.
	ReadPath(leaf uint64) ([][]byte, error)
	// WritePath stores the encrypted buckets along the path to leaf,
	// root first: WritePaths of one leaf.
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

// MemServer is the in-memory bucket store with an adversary-observable
// access log: tree geometry, the adversary-visible sequence, request
// validation and the four Server path methods over one byte slice per
// heap node. It is safe for concurrent use by multiple clients (Path
// ORAM is stateless server-side, paper §II-C).
type MemServer struct {
	mu      sync.Mutex
	depth   int
	leaves  uint64
	seq     uint64
	buckets [][]byte // heap layout, 1-indexed (index 0 unused)
	// idxScratch holds one path's node indices; guarded by mu.
	idxScratch []uint64
	// observer receives the adversary-visible trace; may be nil.
	observer func(AccessEvent)
}

var _ Server = (*MemServer)(nil)

// NewMemServer creates a server sized for the given block capacity.
func NewMemServer(capacity uint64) (*MemServer, error) {
	if capacity < 2 {
		return nil, ErrCapacity
	}
	depth := treeDepth(capacity)
	return &MemServer{
		depth:      depth,
		leaves:     uint64(1) << (depth - 1),
		buckets:    make([][]byte, uint64(1)<<depth), // 1-indexed heap with 2^depth-1 nodes
		idxScratch: make([]uint64, depth),
	}, nil
}

// SetObserver installs the adversary's tap on the access sequence.
func (s *MemServer) SetObserver(fn func(AccessEvent)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// Depth implements Server.
func (s *MemServer) Depth() int { return s.depth }

// Leaves implements Server.
func (s *MemServer) Leaves() uint64 { return s.leaves }

// observeLocked validates leaf and emits the adversary's event for one
// path operation.
func (s *MemServer) observeLocked(leaf uint64, write bool) error {
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
// consumers can recycle them after decoding; a never-written node reads
// as nil.
func (s *MemServer) readPathLocked(leaf uint64, out [][]byte) error {
	if err := s.observeLocked(leaf, false); err != nil {
		return err
	}
	for i, node := range s.idxScratch {
		out[i] = nil
		if b := s.buckets[node]; len(b) > 0 {
			out[i] = append(getCipherBuf()[:0], b...)
		}
	}
	return nil
}

func (s *MemServer) writePathLocked(leaf uint64, buckets [][]byte) error {
	if len(buckets) != s.depth {
		return fmt.Errorf("oram: WritePath got %d buckets, want %d", len(buckets), s.depth)
	}
	for _, ct := range buckets {
		if len(ct) > cipherBufCap {
			// Larger than any seal can produce, and than a pool buffer
			// can hold.
			return fmt.Errorf("%w: %d-byte bucket ciphertext", ErrBadBucket, len(ct))
		}
	}
	if err := s.observeLocked(leaf, true); err != nil {
		return err
	}
	for i, node := range s.idxScratch {
		// Reuse the stored slice's capacity: bucket ciphertexts are a
		// stable size, so steady-state writes allocate nothing.
		s.buckets[node] = append(s.buckets[node][:0], buckets[i]...)
	}
	return nil
}

// ReadPath implements Server: a one-element ReadPaths.
func (s *MemServer) ReadPath(leaf uint64) ([][]byte, error) {
	paths, err := s.ReadPaths([]uint64{leaf})
	if err != nil {
		return nil, err
	}
	return paths[0], nil
}

// ReadPaths implements Server. The batch is served under one lock
// acquisition; the adversary trace still records one event per path.
// All per-path bucket lists share one flat backing allocation.
func (s *MemServer) ReadPaths(leaves []uint64) ([][][]byte, error) {
	flat := make([][]byte, len(leaves)*s.depth)
	out := make([][][]byte, len(leaves))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, leaf := range leaves {
		out[i] = flat[i*s.depth : (i+1)*s.depth]
		if err := s.readPathLocked(leaf, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WritePath implements Server: WritePaths for one leaf.
func (s *MemServer) WritePath(leaf uint64, buckets [][]byte) error {
	return s.WritePaths([]uint64{leaf}, [][][]byte{buckets})
}

// WritePaths implements Server.
func (s *MemServer) WritePaths(leaves []uint64, paths [][][]byte) error {
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

// TamperBucket flips a byte in the first stored bucket on leaf's path
// (test hook modelling the paper's A6 adversary).
func (s *MemServer) TamperBucket(leaf uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, node := range pathIndices(leaf, s.depth) {
		if b := s.buckets[node]; len(b) > 0 {
			b[len(b)-1] ^= 0x01
			return
		}
	}
}
