// Package oram is the fixture stand-in for the real ORAM package:
// raw access inside it is the implementation, never a finding.
package oram

// AccessEvent is what a bucket observer sees.
type AccessEvent struct{ Leaf uint64 }

// Server mimics the interface every store satisfies.
type Server interface {
	ReadPath(leaf uint64) [][]byte
}

// pathStore mimics the shared path server both stores embed: every
// raw-store method of MemServer and FileServer is promoted from here.
type pathStore struct{ obs func(AccessEvent) }

func (s *pathStore) ReadPath(leaf uint64) [][]byte                { return nil }
func (s *pathStore) WritePath(leaf uint64, data [][]byte)         {}
func (s *pathStore) ReadPaths(leaves []uint64) [][][]byte         { return nil }
func (s *pathStore) WritePaths(leaves []uint64, paths [][][]byte) {}
func (s *pathStore) TamperBucket(leaf uint64)                     {}
func (s *pathStore) SetObserver(fn func(AccessEvent))             { s.obs = fn }
func (s *pathStore) Leaves() int                                  { return 0 }

// MemServer mimics the in-memory bucket store.
type MemServer struct{ pathStore }

// FileServer mimics the disk-backed bucket store (persist/shard PR).
type FileServer struct{ pathStore }

func (s *FileServer) Sync() error  { return nil }
func (s *FileServer) Close() error { return nil }

// RemoteServer mimics the TCP transport.
type RemoteServer struct{}

func (s *RemoteServer) ReadPath(leaf uint64) [][]byte { return nil }
func (s *RemoteServer) Close() error                  { return nil }

// internalUse shows in-package raw access is exempt.
func internalUse(s *MemServer, f *FileServer) {
	s.WritePath(1, s.ReadPath(1))
	f.WritePaths(nil, f.ReadPaths(nil))
}
