// Package oram is the fixture stand-in for the real ORAM package:
// raw access inside it is the implementation, never a finding.
package oram

// AccessEvent is what a bucket observer sees.
type AccessEvent struct{ Leaf uint64 }

// Server mimics the interface every store satisfies.
type Server interface {
	ReadPath(leaf uint64) [][]byte
}

// MemServer mimics the in-memory bucket store.
type MemServer struct{ obs func(AccessEvent) }

func (s *MemServer) ReadPath(leaf uint64) [][]byte                { return nil }
func (s *MemServer) WritePath(leaf uint64, data [][]byte)         {}
func (s *MemServer) ReadPaths(leaves []uint64) [][][]byte         { return nil }
func (s *MemServer) WritePaths(leaves []uint64, paths [][][]byte) {}
func (s *MemServer) TamperBucket(leaf uint64)                     {}
func (s *MemServer) SetObserver(fn func(AccessEvent))             { s.obs = fn }
func (s *MemServer) Leaves() int                                  { return 0 }

// RemoteServer mimics the TCP transport.
type RemoteServer struct{}

func (s *RemoteServer) ReadPath(leaf uint64) [][]byte { return nil }
func (s *RemoteServer) Close() error                  { return nil }

// internalUse shows in-package raw access is exempt.
func internalUse(s *MemServer) {
	s.WritePath(1, s.ReadPath(1))
	s.WritePaths(nil, s.ReadPaths(nil))
}
