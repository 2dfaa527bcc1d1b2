package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hardtape/internal/oram"
)

// interval is a half-open wall-clock interval [Start, End).
type interval struct {
	Name       string
	Start, End time.Time
}

// timedServer sits between oram.ServeTCP and the shard's MemServer: it
// counts calls and paths and times how long the store itself is busy,
// so the ORAM server side is measured from outside the oram package.
// While a span log is installed it also records one interval per call.
type timedServer struct {
	inner oram.Server

	busyNs atomic.Int64
	calls  atomic.Int64
	paths  atomic.Int64
	log    atomic.Pointer[intervalLog]
}

var _ oram.Server = (*timedServer)(nil)

// intervalLog collects intervals from concurrent goroutines.
type intervalLog struct {
	mu  sync.Mutex
	ivs []interval
}

func (l *intervalLog) add(iv interval) {
	l.mu.Lock()
	l.ivs = append(l.ivs, iv)
	l.mu.Unlock()
}

// take returns the intervals logged so far and empties the log.
func (l *intervalLog) take() []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.ivs
	l.ivs = nil
	return out
}

func (s *timedServer) observe(name string, start time.Time, paths int) {
	end := time.Now()
	s.busyNs.Add(int64(end.Sub(start)))
	s.calls.Add(1)
	s.paths.Add(int64(paths))
	if l := s.log.Load(); l != nil {
		l.add(interval{Name: name, Start: start, End: end})
	}
}

func (s *timedServer) ReadPath(leaf uint64) ([][]byte, error) {
	defer s.observe("oram.server.read_paths", time.Now(), 1)
	//hardtape:oram-direct the wrapper IS the shard server as the SP runs it: it forwards the oblivious client's own request
	return s.inner.ReadPath(leaf)
}

func (s *timedServer) WritePath(leaf uint64, buckets [][]byte) error {
	defer s.observe("oram.server.write_paths", time.Now(), 1)
	//hardtape:oram-direct the wrapper IS the shard server as the SP runs it: it forwards the oblivious client's own request
	return s.inner.WritePath(leaf, buckets)
}

func (s *timedServer) ReadPaths(leaves []uint64) ([][][]byte, error) {
	defer s.observe("oram.server.read_paths", time.Now(), len(leaves))
	//hardtape:oram-direct the wrapper IS the shard server as the SP runs it: it forwards the oblivious client's own request
	return s.inner.ReadPaths(leaves)
}

func (s *timedServer) WritePaths(leaves []uint64, paths [][][]byte) error {
	defer s.observe("oram.server.write_paths", time.Now(), len(leaves))
	//hardtape:oram-direct the wrapper IS the shard server as the SP runs it: it forwards the oblivious client's own request
	return s.inner.WritePaths(leaves, paths)
}

func (s *timedServer) Depth() int     { return s.inner.Depth() }
func (s *timedServer) Leaves() uint64 { return s.inner.Leaves() }

// serverCounters is a snapshot of the shard servers' counters, summed.
type serverCounters struct {
	busy         time.Duration
	calls, paths int64
}

func snapshotServers(servers []*timedServer) serverCounters {
	var c serverCounters
	for _, s := range servers {
		c.busy += time.Duration(s.busyNs.Load())
		c.calls += s.calls.Load()
		c.paths += s.paths.Load()
	}
	return c
}

func (c serverCounters) sub(o serverCounters) serverCounters {
	return serverCounters{busy: c.busy - o.busy, calls: c.calls - o.calls, paths: c.paths - o.paths}
}

// ioEvent is one Read or Write call on a recorded conn.
type ioEvent struct {
	Start, End time.Time
	N          int
}

// connRecorder collects what crossed one client socket. The mux reads
// on its own goroutine while the caller writes, hence the lock.
type connRecorder struct {
	mu     sync.Mutex
	writes []ioEvent
	reads  []ioEvent
}

// connActivity is what one request (or handshake) put on the socket.
type connActivity struct {
	writes, reads     []ioEvent
	bytesOut, bytesIn int
}

// take returns the activity since the last take and resets the recorder.
func (r *connRecorder) take() connActivity {
	r.mu.Lock()
	a := connActivity{writes: r.writes, reads: r.reads}
	r.writes, r.reads = nil, nil
	r.mu.Unlock()
	for _, w := range a.writes {
		a.bytesOut += w.N
	}
	for _, rd := range a.reads {
		a.bytesIn += rd.N
	}
	return a
}

// recordedConn is the harness's net.Conn wrapper under the client.
type recordedConn struct {
	net.Conn
	rec *connRecorder
}

func (c *recordedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	ev := ioEvent{Start: start, End: time.Now(), N: n}
	c.rec.mu.Lock()
	c.rec.writes = append(c.rec.writes, ev)
	c.rec.mu.Unlock()
	return n, err
}

func (c *recordedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	if n > 0 {
		ev := ioEvent{Start: start, End: time.Now(), N: n}
		c.rec.mu.Lock()
		c.rec.reads = append(c.rec.reads, ev)
		c.rec.mu.Unlock()
	}
	return n, err
}
