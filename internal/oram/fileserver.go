package oram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// fileMagic identifies an ORAM bucket file (version 1).
var fileMagic = [8]byte{'H', 'T', 'O', 'R', 'A', 'M', '1', 0}

// fileHeaderSize is the on-disk header: magic (8) + depth u32 +
// reserved u32.
const fileHeaderSize = 16

// fileSlotSize is one node's fixed on-disk record: ciphertext length
// u32 + cipherBufCap payload bytes. Fixed-size slots keep node offsets
// a pure function of the heap index, so a write touches exactly one
// record and a torn write corrupts at most the buckets it covered —
// which the AES-GCM open then rejects as ErrTampered.
const fileSlotSize = 4 + cipherBufCap

// FileServer is a disk-backed Server: the same pathStore as MemServer
// (adversary surface, validation, concurrency contract) over
// fixed-size records in a single file.
//
// Writes go through the OS page cache; Sync flushes to stable storage.
// The client's checkpointing (persist.go) calls Sync before publishing
// a checkpoint manifest, so a crash never leaves a checkpoint pointing
// at bucket state that predates it.
type FileServer struct {
	pathStore
	f *os.File
	// recScratch assembles one record per write; guarded by mu.
	recScratch [fileSlotSize]byte
}

var _ Server = (*FileServer)(nil)

// OpenFileServer opens (or creates) a disk-backed bucket store at path
// sized for the given block capacity. Reopening an existing file
// validates the magic and reuses the stored geometry; a capacity
// implying a different tree depth is rejected, so a recovered store
// always serves the exact tree it was built as.
func OpenFileServer(path string, capacity uint64) (*FileServer, error) {
	s := &FileServer{}
	if err := s.init(capacity, s); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("oram: open bucket file: %w", err)
	}
	s.f = f
	if err := s.checkHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// checkHeader writes the header of a new file or validates an existing
// one against the store's geometry.
func (s *FileServer) checkHeader() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("oram: stat bucket file: %w", err)
	}
	var hdr [fileHeaderSize]byte
	if st.Size() == 0 {
		copy(hdr[:8], fileMagic[:])
		binary.BigEndian.PutUint32(hdr[8:], uint32(s.depth))
		if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("oram: write bucket header: %w", err)
		}
		return nil
	}
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, fileHeaderSize), hdr[:]); err != nil {
		return fmt.Errorf("oram: read bucket header: %w", err)
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return fmt.Errorf("%w: bad bucket file magic", ErrTampered)
	}
	if got := int(binary.BigEndian.Uint32(hdr[8:])); got != s.depth {
		return fmt.Errorf("%w: bucket file depth %d, capacity implies %d", ErrCapacity, got, s.depth)
	}
	return nil
}

// nodeOffset returns the file offset of a 1-indexed heap node's record.
func nodeOffset(node uint64) int64 {
	return fileHeaderSize + int64(node-1)*fileSlotSize
}

// readNode loads one node's ciphertext into a pooled buffer (nil for a
// never-written node).
func (s *FileServer) readNode(node uint64) ([]byte, error) {
	var lenBuf [4]byte
	n, err := s.f.ReadAt(lenBuf[:], nodeOffset(node))
	if err == io.EOF && n == 0 {
		return nil, nil // past EOF: never written
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("oram: read bucket %d: %w", node, err)
	}
	if n < 4 {
		return nil, nil
	}
	ln := binary.BigEndian.Uint32(lenBuf[:])
	if ln == 0 {
		return nil, nil
	}
	if ln > cipherBufCap {
		// A length no seal could have produced: on-disk corruption.
		return nil, fmt.Errorf("%w: bucket %d record length %d", ErrTampered, node, ln)
	}
	buf := getCipherBuf()[:ln]
	if _, err := s.f.ReadAt(buf, nodeOffset(node)+4); err != nil {
		putCipherBuf(buf)
		if err == io.EOF {
			return nil, fmt.Errorf("%w: bucket %d truncated", ErrTampered, node)
		}
		return nil, fmt.Errorf("oram: read bucket %d: %w", node, err)
	}
	return buf, nil
}

// writeNode stores one node's ciphertext as a single WriteAt of its
// fixed-size record.
func (s *FileServer) writeNode(node uint64, ct []byte) error {
	rec := s.recScratch[:4+len(ct)]
	binary.BigEndian.PutUint32(rec, uint32(len(ct)))
	copy(rec[4:], ct)
	if _, err := s.f.WriteAt(rec, nodeOffset(node)); err != nil {
		return fmt.Errorf("oram: write bucket %d: %w", node, err)
	}
	return nil
}

// Sync flushes buffered bucket writes to stable storage.
//
//hardtape:locksafe-ok fsync must be ordered against in-flight bucket writes; s.mu exists to serialize file access
func (s *FileServer) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("oram: sync bucket file: %w", err)
	}
	return nil
}

// Close flushes and closes the bucket file.
//
//hardtape:locksafe-ok final fsync+close must exclude concurrent path ops; s.mu exists to serialize file access
func (s *FileServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.f.Sync()
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("oram: close bucket file: %w", err)
	}
	return nil
}
