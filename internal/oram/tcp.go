package oram

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The paper connects HarDTAPE to the SP's ORAM server over Ethernet
// (2 ms RTT). This file provides that transport: a TCP server fronting
// any Server implementation, and a RemoteServer client that satisfies
// the Server interface over the wire. Buckets are already encrypted by
// the ORAM client, so the transport itself needs no confidentiality —
// exactly the paper's trust split.
//
// A connection carries one request at a time: a tree runs one access
// at a time under its lock and every tree dials its own connection, so the
// client writes a request, flushes, and reads the response on the
// caller's goroutine. Batching, not pipelining, amortizes the link: one
// request moves up to maxWirePaths paths for one round trip, and a
// one-op round is a batch of one.
//
//	request:  [reqID u64][op u8][payload]
//	response: [reqID u64][status u8][payload]   (statusErr: [len u8][msg])
//
//	opMeta        request —                              response depth u64, leaves u64
//	opReadPaths   request n u64, n × leaf u64            response n u64, n × path
//	opWritePaths  request n u64, n × leaf u64, n × path  response —
//	path          depth u64, depth × (len u64, ciphertext)
//
// Both ends face bytes the other side controls. Every count is checked
// against what the decoder already knows (the paths it asked for, the
// tree depth, the largest ciphertext a seal can produce) before anything
// is allocated for it. The echoed request id is a desync check: a
// response that is not for the request just written means the byte
// stream can no longer be trusted.

// Wire opcodes. 1 and 2 were the single-path forms of 4 and 5.
const (
	opMeta       byte = 3
	opReadPaths  byte = 4
	opWritePaths byte = 5

	statusOK  byte = 0
	statusErr byte = 1
)

// maxWirePaths bounds the paths in one batched request.
const maxWirePaths = 64

// maxWireDepth bounds the tree depth a server may announce.
const maxWireDepth = 64

// roundTripTimeout bounds one request, first byte out to last byte in:
// a stalled server fails the access (latching connection, then client)
// instead of holding the tree lock for good. Vars so tests can shorten.
var (
	roundTripTimeout = 10 * time.Second
	dialTimeout      = 5 * time.Second
)

// Transport errors.
var (
	ErrWire = errors.New("oram: wire protocol error")
)

// TCPServer serves a Server over TCP.
type TCPServer struct {
	inner Server
	l     net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{} // live connections; nil once closed
	wg    sync.WaitGroup        // the accept loop and every connection handler
}

// ServeTCP starts serving inner on the listener. It returns
// immediately; use Close to stop.
func ServeTCP(inner Server, l net.Listener) *TCPServer {
	s := &TCPServer{inner: inner, l: l, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *TCPServer) Addr() net.Addr { return s.l.Addr() }

// Close stops the listener, closes every accepted connection and waits
// for their handlers to return.
func (s *TCPServer) Close() error {
	err := s.l.Close()
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.conns == nil { // accepted while Close was running
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			//hardtape:faulterr-ok a client disconnect ends that connection only; the accept loop must survive it
			_ = s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			_ = conn.Close()
		}()
	}
}

// serveConn handles one connection: requests are processed and answered
// one at a time, in arrival order.
func (s *TCPServer) serveConn(conn net.Conn) error {
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	for {
		reqID, err := readU64(r)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		op, err := r.ReadByte()
		if err != nil {
			return err
		}
		if err := s.handle(r, w, reqID, op); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

// handle decodes one request, runs it against the inner server, and
// writes the response frame. It returns an error only for transport and
// protocol failures, which end the connection; server-level errors
// travel back as statusErr frames.
func (s *TCPServer) handle(r *bufio.Reader, w *bufio.Writer, reqID uint64, op byte) error {
	switch op {
	case opMeta:
		if err := respond(w, reqID, nil); err != nil {
			return err
		}
		if err := writeU64(w, uint64(s.inner.Depth())); err != nil {
			return err
		}
		return writeU64(w, s.inner.Leaves())
	case opReadPaths:
		leaves, err := readLeaves(r)
		if err != nil {
			return err
		}
		paths, err := s.inner.ReadPaths(leaves)
		if err != nil {
			return respond(w, reqID, err)
		}
		if err := respond(w, reqID, nil); err != nil {
			return err
		}
		if err := writeU64(w, uint64(len(paths))); err != nil {
			return err
		}
		for _, buckets := range paths {
			if err := writePath(w, buckets); err != nil {
				return err
			}
			recycleBuckets(buckets)
		}
		return nil
	case opWritePaths:
		leaves, err := readLeaves(r)
		if err != nil {
			return err
		}
		paths, err := readPaths(r, len(leaves), s.inner.Depth())
		if err != nil {
			return err
		}
		// The inner server stores copies; the wire buffers recycle.
		err = s.inner.WritePaths(leaves, paths)
		for _, buckets := range paths {
			recycleBuckets(buckets)
		}
		return respond(w, reqID, err)
	default:
		return fmt.Errorf("%w: opcode %d", ErrWire, op)
	}
}

// respond starts a response frame: statusOK, or statusErr carrying
// err's (truncated) message.
func respond(w *bufio.Writer, reqID uint64, err error) error {
	if werr := writeU64(w, reqID); werr != nil {
		return werr
	}
	if err == nil {
		return w.WriteByte(statusOK)
	}
	msg := err.Error()
	if len(msg) > 255 {
		msg = msg[:255]
	}
	if werr := w.WriteByte(statusErr); werr != nil {
		return werr
	}
	if werr := w.WriteByte(byte(len(msg))); werr != nil {
		return werr
	}
	_, werr := w.WriteString(msg)
	return werr
}

// RemoteServer is a Server backed by one TCP connection with at most
// one request on the wire. It is safe for concurrent use; concurrent
// callers take turns.
type RemoteServer struct {
	conn net.Conn

	// mu is held from the first request byte to the last response byte.
	mu     sync.Mutex
	r      *bufio.Reader
	w      *bufio.Writer
	nextID uint64
	// broken is the sticky transport error: once a frame fails to send
	// or decode the stream position is unknown, so every later call
	// fails fast with the same error instead of reading garbage.
	broken error

	depth  int
	leaves uint64
}

var _ Server = (*RemoteServer)(nil)

// DialServer connects to a TCP ORAM server and fetches its geometry.
func DialServer(addr string) (*RemoteServer, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("oram: dial: %w", err)
	}
	rs := &RemoteServer{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<16),
		w:    bufio.NewWriterSize(conn, 1<<16),
	}
	if _, err := rs.roundTrip(opMeta, nil, nil); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("oram: meta: %w", err)
	}
	return rs, nil
}

// Close closes the connection; a request in flight fails.
func (rs *RemoteServer) Close() error { return rs.conn.Close() }

// Depth implements Server.
func (rs *RemoteServer) Depth() int { return rs.depth }

// Leaves implements Server.
func (rs *RemoteServer) Leaves() uint64 { return rs.leaves }

// roundTrip sends one request and decodes its response on the caller's
// goroutine, within roundTripTimeout. A statusErr response is returned
// as an ErrWire-wrapped error and leaves the connection usable; any
// other failure, the deadline included, latches broken.
func (rs *RemoteServer) roundTrip(op byte, leaves []uint64, paths [][][]byte) ([][][]byte, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.broken != nil {
		return nil, rs.broken
	}
	rs.nextID++
	err := rs.conn.SetDeadline(time.Now().Add(roundTripTimeout))
	if err == nil {
		err = writeRequest(rs.w, rs.nextID, op, leaves, paths)
	}
	var resp [][][]byte
	var remote error
	if err == nil {
		resp, remote, err = rs.readResponse(op, len(leaves))
	}
	if err != nil {
		rs.broken = fmt.Errorf("oram: connection failed: %w", err)
		return nil, rs.broken
	}
	return resp, remote
}

// writeRequest encodes and flushes one request frame.
func writeRequest(w *bufio.Writer, id uint64, op byte, leaves []uint64, paths [][][]byte) error {
	if err := writeU64(w, id); err != nil {
		return err
	}
	if err := w.WriteByte(op); err != nil {
		return err
	}
	if op != opMeta {
		if err := writeU64(w, uint64(len(leaves))); err != nil {
			return err
		}
		for _, leaf := range leaves {
			if err := writeU64(w, leaf); err != nil {
				return err
			}
		}
		for _, buckets := range paths {
			if err := writePath(w, buckets); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// readResponse decodes the response to the request just written: n is
// the number of paths it asked for. remote is the server's own refusal
// (a well-formed statusErr frame); err is a transport or protocol
// failure.
func (rs *RemoteServer) readResponse(op byte, n int) (paths [][][]byte, remote, err error) {
	id, err := readU64(rs.r)
	if err != nil {
		return nil, nil, err
	}
	if id != rs.nextID {
		return nil, nil, fmt.Errorf("%w: response id %d, want %d", ErrWire, id, rs.nextID)
	}
	status, err := rs.r.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	if status == statusErr {
		ln, err := rs.r.ReadByte()
		if err != nil {
			return nil, nil, err
		}
		msg := make([]byte, ln)
		if _, err := io.ReadFull(rs.r, msg); err != nil {
			return nil, nil, err
		}
		return nil, fmt.Errorf("%w: remote: %s", ErrWire, msg), nil
	}
	if status != statusOK {
		return nil, nil, fmt.Errorf("%w: status %d", ErrWire, status)
	}
	switch op {
	case opMeta:
		depth, err := readU64(rs.r)
		if err != nil {
			return nil, nil, err
		}
		if rs.leaves, err = readU64(rs.r); err != nil {
			return nil, nil, err
		}
		if depth < 1 || depth > maxWireDepth || rs.leaves != uint64(1)<<(depth-1) {
			return nil, nil, fmt.Errorf("%w: geometry depth %d, %d leaves", ErrWire, depth, rs.leaves)
		}
		rs.depth = int(depth)
	case opReadPaths:
		count, err := readU64(rs.r)
		if err != nil {
			return nil, nil, err
		}
		if count != uint64(n) {
			return nil, nil, fmt.Errorf("%w: got %d paths, want %d", ErrWire, count, n)
		}
		if paths, err = readPaths(rs.r, n, rs.depth); err != nil {
			return nil, nil, err
		}
	}
	return paths, nil, nil
}

// ReadPath implements Server: a one-element ReadPaths.
func (rs *RemoteServer) ReadPath(leaf uint64) ([][]byte, error) {
	paths, err := rs.ReadPaths([]uint64{leaf})
	if err != nil {
		return nil, err
	}
	return paths[0], nil
}

// WritePath implements Server: a one-element WritePaths.
func (rs *RemoteServer) WritePath(leaf uint64, buckets [][]byte) error {
	return rs.WritePaths([]uint64{leaf}, [][][]byte{buckets})
}

// ReadPaths implements Server: N paths for one link round trip.
func (rs *RemoteServer) ReadPaths(leaves []uint64) ([][][]byte, error) {
	if len(leaves) == 0 {
		return nil, nil
	}
	if len(leaves) > maxWirePaths {
		return nil, fmt.Errorf("%w: %d paths exceeds batch limit %d", ErrWire, len(leaves), maxWirePaths)
	}
	return rs.roundTrip(opReadPaths, leaves, nil)
}

// WritePaths implements Server: N path writes for one link round trip.
// A request the server's decoder would refuse is refused here, before
// it costs the connection.
func (rs *RemoteServer) WritePaths(leaves []uint64, paths [][][]byte) error {
	if len(paths) != len(leaves) {
		return fmt.Errorf("%w: %d paths for %d leaves", ErrWire, len(paths), len(leaves))
	}
	if len(leaves) == 0 {
		return nil
	}
	if len(leaves) > maxWirePaths {
		return fmt.Errorf("%w: %d paths exceeds batch limit %d", ErrWire, len(leaves), maxWirePaths)
	}
	for _, buckets := range paths {
		if len(buckets) != rs.depth {
			return fmt.Errorf("%w: %d buckets on a depth-%d path", ErrWire, len(buckets), rs.depth)
		}
		for _, ct := range buckets {
			if len(ct) > cipherBufCap {
				return fmt.Errorf("%w: %d-byte bucket ciphertext", ErrWire, len(ct))
			}
		}
	}
	_, err := rs.roundTrip(opWritePaths, leaves, paths)
	return err
}

// --- wire helpers ---

// writeU64/readU64 move big-endian u64s byte-wise through the
// CONCRETE bufio types: passing a stack buffer to an io.Writer
// interface would force it to escape and allocate on every call, and
// these run once per bucket on the hot path.
func writeU64(w *bufio.Writer, v uint64) error {
	for shift := 56; shift >= 0; shift -= 8 {
		if err := w.WriteByte(byte(v >> shift)); err != nil {
			return err
		}
	}
	return nil
}

func readU64(r *bufio.Reader) (uint64, error) {
	var v uint64
	for i := 0; i < 8; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && errors.Is(err, io.EOF) {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// readLeaves decodes a request's leaf list: n u64, n × leaf u64.
func readLeaves(r *bufio.Reader) ([]uint64, error) {
	count, err := readU64(r)
	if err != nil {
		return nil, err
	}
	if count > maxWirePaths {
		return nil, fmt.Errorf("%w: %d paths", ErrWire, count)
	}
	leaves := make([]uint64, count)
	for i := range leaves {
		if leaves[i], err = readU64(r); err != nil {
			return nil, err
		}
	}
	return leaves, nil
}

func writePath(w *bufio.Writer, buckets [][]byte) error {
	if err := writeU64(w, uint64(len(buckets))); err != nil {
		return err
	}
	for _, b := range buckets {
		if err := writeU64(w, uint64(len(b))); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// readPaths decodes n paths of exactly depth buckets each; the per-path
// bucket lists share one flat backing. The decoder knows n and depth
// before it reads, so the peer chooses nothing about what is allocated:
// a path of any other length, or a bucket longer than cipherBufCap, is
// ErrWire. Buckets land in cipher-pool buffers; consumers recycle them
// with putCipherBuf once decoded.
func readPaths(r *bufio.Reader, n, depth int) ([][][]byte, error) {
	paths := make([][][]byte, n)
	flat := make([][]byte, n*depth)
	for i := range paths {
		count, err := readU64(r)
		if err != nil {
			return nil, err
		}
		if count != uint64(depth) {
			return nil, fmt.Errorf("%w: %d buckets on a depth-%d path", ErrWire, count, depth)
		}
		paths[i] = flat[i*depth : (i+1)*depth]
		for l := range paths[i] {
			size, err := readU64(r)
			if err != nil {
				return nil, err
			}
			if size > cipherBufCap {
				return nil, fmt.Errorf("%w: bucket size %d", ErrWire, size)
			}
			if size == 0 {
				continue // never-written bucket
			}
			buf := getCipherBuf()[:size]
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			paths[i][l] = buf
		}
	}
	return paths, nil
}

// recycleBuckets returns bucket buffers to the cipher pool once their
// contents are fully consumed.
func recycleBuckets(buckets [][]byte) {
	for i, b := range buckets {
		if len(b) > 0 {
			putCipherBuf(b)
		}
		buckets[i] = nil
	}
}
