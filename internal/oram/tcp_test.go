package oram

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startTCP spins up a MemServer behind the TCP transport and returns a
// connected RemoteServer.
func startTCP(t testing.TB, capacity uint64) (*RemoteServer, *MemServer) {
	t.Helper()
	inner, err := NewMemServer(capacity)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(inner, l)
	t.Cleanup(func() { _ = srv.Close() })

	remote, err := DialServer(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = remote.Close() })
	return remote, inner
}

func TestTCPGeometry(t *testing.T) {
	remote, inner := startTCP(t, 256)
	if remote.Depth() != inner.Depth() || remote.Leaves() != inner.Leaves() {
		t.Fatalf("geometry: remote %d/%d vs inner %d/%d",
			remote.Depth(), remote.Leaves(), inner.Depth(), inner.Leaves())
	}
}

func TestTCPClientRoundTrip(t *testing.T) {
	remote, _ := startTCP(t, 256)
	cli, err := NewClient([]Server{remote}, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := writeOne(cli, BlockID(i), []byte(fmt.Sprintf("remote-%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		got, err := readOne(context.Background(), cli, BlockID(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := fmt.Sprintf("remote-%d", i)
		if string(got[:len(want)]) != want {
			t.Fatalf("block %d corrupted over TCP", i)
		}
	}
}

func TestTCPOutOfRangeLeafSurfacesError(t *testing.T) {
	remote, _ := startTCP(t, 64)
	if _, err := remote.ReadPath(remote.Leaves() + 5); !errors.Is(err, ErrWire) {
		t.Fatalf("out-of-range leaf: %v", err)
	}
	// The connection stays usable after a remote error.
	if _, err := remote.ReadPath(0); err != nil {
		t.Fatalf("connection poisoned after error: %v", err)
	}
}

func TestTCPEmptyBuckets(t *testing.T) {
	// A fresh tree serves nil buckets; they must cross the wire as
	// empties, not crash.
	remote, _ := startTCP(t, 64)
	buckets, err := remote.ReadPath(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != remote.Depth() {
		t.Fatalf("bucket count %d != depth %d", len(buckets), remote.Depth())
	}
	for _, b := range buckets {
		if len(b) != 0 {
			t.Fatal("fresh tree should serve empty buckets")
		}
	}
}

func TestTCPWritePathPersists(t *testing.T) {
	remote, inner := startTCP(t, 64)
	payload := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		bytes.Repeat([]byte{2}, 200),
	}
	// Pad to depth.
	for len(payload) < remote.Depth() {
		payload = append(payload, []byte{9})
	}
	if err := remote.WritePath(1, payload); err != nil {
		t.Fatal(err)
	}
	// Both the remote view and the inner server agree.
	back, err := remote.ReadPath(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[0], payload[0]) || !bytes.Equal(back[1], payload[1]) {
		t.Fatal("write-path round trip mismatch")
	}
	innerView, err := inner.ReadPath(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(innerView[0], payload[0]) {
		t.Fatal("inner server missed the write")
	}
}

func TestTCPMultipleClients(t *testing.T) {
	// Path ORAM is stateless server-side: a second connection sees the
	// first one's writes.
	remote1, _ := startTCP(t, 128)
	cli1, err := NewClient([]Server{remote1}, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeOne(cli1, 7, []byte("shared")); err != nil {
		t.Fatal(err)
	}

	remote2, err := DialServer(remote1.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()
	cli2, err := NewClient([]Server{remote2}, testKey())
	if err != nil {
		t.Fatal(err)
	}
	// cli2 has its own (empty) position map: it cannot find block 7,
	// but its own writes work over the same tree.
	if err := writeOne(cli2, 900, []byte("second client")); err != nil {
		t.Fatal(err)
	}
	got, err := readOne(context.Background(), cli2, 900)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:13]) != "second client" {
		t.Fatal("second client round trip failed")
	}
}

func TestTCPBatchRoundTrip(t *testing.T) {
	remote, inner := startTCP(t, 128)
	leaves := []uint64{0, 3, 3, remote.Leaves() - 1}
	paths := make([][][]byte, len(leaves))
	for i := range leaves {
		path := make([][]byte, remote.Depth())
		for l := range path {
			path[l] = bytes.Repeat([]byte{byte(i*16 + l)}, 64)
		}
		paths[i] = path
	}
	if err := remote.WritePaths(leaves, paths); err != nil {
		t.Fatal(err)
	}
	back, err := remote.ReadPaths(leaves)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(leaves) {
		t.Fatalf("got %d paths, want %d", len(back), len(leaves))
	}
	// The duplicate leaf (3) was written twice; the later write wins on
	// the shared buckets, and every returned path matches the inner
	// server's view.
	for i, leaf := range leaves {
		innerView, err := inner.ReadPath(leaf)
		if err != nil {
			t.Fatal(err)
		}
		for l := range innerView {
			if !bytes.Equal(back[i][l], innerView[l]) {
				t.Fatalf("path %d level %d: wire view diverges from inner server", i, l)
			}
		}
	}
	// Validation: mismatched lengths and oversized batches error cleanly.
	if err := remote.WritePaths([]uint64{0, 1}, paths[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	big := make([]uint64, maxWirePaths+1)
	if _, err := remote.ReadPaths(big); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// The connection survives client-side validation failures.
	if _, err := remote.ReadPaths([]uint64{0}); err != nil {
		t.Fatalf("connection unusable after validation error: %v", err)
	}
}

// TestTCPPipelinedConcurrent (the name predates the one-request
// transport) holds RemoteServer to "safe for concurrent use" under
// -race: eight goroutines share ONE connection, where they now take
// turns — each must get the response to its own request — while
// additional independent connections hammer the same TCPServer.
// An ORAM client calls each tree's server under that tree's lock, so
// this drives the raw transport ops directly.
func TestTCPPipelinedConcurrent(t *testing.T) {
	remote, _ := startTCP(t, 256)
	addr := remote.conn.RemoteAddr().String()

	const goroutines = 8
	const rounds = 30
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*2)

	// Half the goroutines share the first connection...
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				leaf := uint64((g*rounds + i) % int(remote.Leaves()))
				path := make([][]byte, remote.Depth())
				for l := range path {
					path[l] = []byte{byte(g), byte(i), byte(l)}
				}
				if err := remote.WritePath(leaf, path); err != nil {
					errCh <- fmt.Errorf("shared conn write g%d i%d: %w", g, i, err)
					return
				}
				back, err := remote.ReadPath(leaf)
				if err != nil {
					errCh <- fmt.Errorf("shared conn read g%d i%d: %w", g, i, err)
					return
				}
				if len(back) != remote.Depth() {
					errCh <- fmt.Errorf("shared conn g%d i%d: short path", g, i)
					return
				}
			}
		}(g)
	}
	// ...and the rest each dial their own.
	for g := 0; g < goroutines/2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own, err := DialServer(addr)
			if err != nil {
				errCh <- fmt.Errorf("dial %d: %w", g, err)
				return
			}
			defer own.Close()
			for i := 0; i < rounds; i++ {
				if _, err := own.ReadPaths([]uint64{0, uint64(i % int(own.Leaves()))}); err != nil {
					errCh <- fmt.Errorf("own conn %d batch %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// waitGoroutines fails the test unless the goroutine count returns to
// baseline (same polling style as TestRecorderCloseGoroutineLeak).
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after %s", baseline, runtime.NumGoroutine(), what)
}

// TestTCPServerCloseEndsConnections: Close hangs up on every accepted
// connection and waits for the handlers, so a connected client's next
// call fails and no goroutine outlives the server.
func TestTCPServerCloseEndsConnections(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	inner, err := NewMemServer(64)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(inner, l)
	remotes := make([]*RemoteServer, 4)
	for i := range remotes {
		if remotes[i], err = DialServer(srv.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer remotes[i].Close()
		if _, err := remotes[i].ReadPath(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has waited: the accept loop and all four handlers are gone
	// while the clients still hold their ends open.
	waitGoroutines(t, baseline, "TCPServer.Close with 4 live connections")
	for i, remote := range remotes {
		if _, err := remote.ReadPath(0); err == nil {
			t.Fatalf("connection %d still served after TCPServer.Close", i)
		}
	}
	if _, err := DialServer(srv.Addr().String()); err == nil {
		t.Fatal("dial succeeded after TCPServer.Close")
	}
}

// scriptedServer is a hand-rolled peer on the ORAM wire: ONE goroutine
// accepts connections and runs script on each, inline. It answers the
// dial-time opMeta itself, announcing depth and 2^(depth-1) leaves.
func scriptedServer(t *testing.T, depth uint64, script func(r *bufio.Reader, conn net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
			r := bufio.NewReader(conn)
			var req [9]byte // reqID + opMeta
			if _, err := io.ReadFull(r, req[:]); err != nil {
				continue
			}
			resp := binary.BigEndian.AppendUint64(nil, binary.BigEndian.Uint64(req[:8]))
			resp = append(resp, statusOK)
			resp = binary.BigEndian.AppendUint64(resp, depth)
			resp = binary.BigEndian.AppendUint64(resp, uint64(1)<<(depth-1))
			if _, err := conn.Write(resp); err != nil {
				continue
			}
			if script != nil {
				script(r, conn)
			}
		}
	}()
	t.Cleanup(func() {
		_ = l.Close()
		<-done
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return l.Addr().String()
}

// TestDialServerStartsNoGoroutine: the transport has no reader
// goroutine — a dialed connection costs the device nothing that runs.
func TestDialServerStartsNoGoroutine(t *testing.T) {
	addr := scriptedServer(t, 5, nil)
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		remote, err := DialServer(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		if remote.Depth() != 5 || remote.Leaves() != 16 {
			t.Fatalf("geometry %d/%d, want 5/16", remote.Depth(), remote.Leaves())
		}
	}
	waitGoroutines(t, baseline, "8 DialServer calls")
}

// TestTCPLyingServerBounded: the SP controls every response byte. A
// response whose counts are not the ones the client's own request
// implies is refused with ErrWire BEFORE anything is allocated for it,
// the connection latches, and the next call fails fast.
func TestTCPLyingServerBounded(t *testing.T) {
	const depth = 5
	u64 := binary.BigEndian.AppendUint64
	okHeader := func(reqID uint64) []byte { return append(u64(nil, reqID), statusOK) }
	honestPath := func(b []byte) []byte {
		b = u64(b, depth)
		for l := 0; l < depth; l++ {
			b = append(u64(b, 3), 1, 2, 3)
		}
		return b
	}
	cases := []struct {
		name string
		// lie builds the response to a 2-leaf opReadPaths request.
		lie func(reqID uint64) []byte
	}{
		{"oversize path count", func(id uint64) []byte {
			return u64(okHeader(id), 1<<40)
		}},
		{"path count above the request", func(id uint64) []byte {
			return honestPath(honestPath(honestPath(u64(okHeader(id), 3))))
		}},
		{"wrong bucket count", func(id uint64) []byte {
			return u64(u64(okHeader(id), 2), depth+1)
		}},
		{"huge bucket count", func(id uint64) []byte {
			return u64(u64(okHeader(id), 2), 1<<40)
		}},
		{"oversize bucket", func(id uint64) []byte {
			return u64(u64(u64(okHeader(id), 2), depth), cipherBufCap+1)
		}},
		{"huge bucket", func(id uint64) []byte {
			return u64(u64(u64(okHeader(id), 2), depth), 1<<40)
		}},
		{"response for another request", func(id uint64) []byte {
			return honestPath(honestPath(u64(okHeader(id+1), 2)))
		}},
		{"unknown status", func(id uint64) []byte {
			return append(u64(nil, id), 7)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedServer(t, depth, func(r *bufio.Reader, conn net.Conn) {
				var req [8 + 1 + 8 + 2*8]byte // reqID, op, n = 2, two leaves
				if _, err := io.ReadFull(r, req[:]); err != nil {
					return
				}
				_, _ = conn.Write(tc.lie(binary.BigEndian.Uint64(req[:8])))
			})
			remote, err := DialServer(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = remote.ReadPaths([]uint64{0, 1})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrWire) {
				t.Fatalf("lying response: %v, want ErrWire", err)
			}
			// An honest 2-path response at this depth needs under 64 KiB
			// (10 pool buffers); the lies above ask for 2^40 of something.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("decoder allocated %d bytes on a lying response", grew)
			}
			// Latched: no further byte is read from the desynced stream.
			start := time.Now()
			if _, err2 := remote.ReadPath(0); !errors.Is(err2, ErrWire) || err2.Error() != err.Error() {
				t.Fatalf("call after latch: %v, want the latched %v", err2, err)
			}
			if err := remote.WritePath(0, make([][]byte, depth)); !errors.Is(err, ErrWire) {
				t.Fatalf("write after latch: %v, want ErrWire", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("latched calls took %v; they must not touch the wire", took)
			}
		})
	}

	// A geometry no tree has is refused at dial time, before it can size
	// any later allocation.
	t.Run("absurd depth", func(t *testing.T) {
		if _, err := DialServer(scriptedServer(t, 63, nil)); err != nil {
			t.Fatalf("depth 63 is a legal announcement: %v", err)
		}
		if _, err := DialServer(scriptedServer(t, 1<<32, nil)); !errors.Is(err, ErrWire) {
			t.Fatalf("depth 2^32: %v, want ErrWire", err)
		}
	})
}

// TestTCPStalledServerFailsClosed: a server that answers the dial-time
// opMeta and then never replies fails the access within the round-trip
// timeout instead of holding the tree lock for good; the client latches
// ErrClientFailed and every later call fails without touching the wire.
// A listener that never answers opMeta fails the dial the same way.
func TestTCPStalledServerFailsClosed(t *testing.T) {
	defer func(d time.Duration) { roundTripTimeout = d }(roundTripTimeout)
	roundTripTimeout = 300 * time.Millisecond

	addr := scriptedServer(t, 5, func(r *bufio.Reader, _ net.Conn) {
		_, _ = io.Copy(io.Discard, r) // read every request, answer none
	})
	remote, err := DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient([]Server{remote}, make([]byte, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() // before the script's cleanup: it ends the io.Copy

	start := time.Now()
	if _, err := readOne(context.Background(), cli, 1); !errors.Is(err, ErrClientFailed) {
		t.Fatalf("read from a stalled server: %v, want ErrClientFailed", err)
	}
	if took := time.Since(start); took > roundTripTimeout+time.Second {
		t.Fatalf("stalled read took %v, timeout %v", took, roundTripTimeout)
	}
	start = time.Now()
	if _, err := readOne(context.Background(), cli, 1); !errors.Is(err, ErrClientFailed) {
		t.Fatalf("read after the latch: %v, want ErrClientFailed", err)
	}
	if err := writeOne(cli, 2, []byte{1}); !errors.Is(err, ErrClientFailed) {
		t.Fatalf("write after the latch: %v, want ErrClientFailed", err)
	}
	if took := time.Since(start); took > roundTripTimeout/2 {
		t.Fatalf("latched calls took %v; they must not wait on the wire", took)
	}

	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	start = time.Now()
	if _, err := DialServer(silent.Addr().String()); err == nil {
		t.Fatal("dial succeeded against a listener that never answers")
	}
	if took := time.Since(start); took > roundTripTimeout+time.Second {
		t.Fatalf("dial took %v, timeout %v", took, roundTripTimeout)
	}
}

// TestTCPServerRequestCaps: the server's request decoder holds the same
// line against a hostile client — a count, path length or bucket size
// beyond what the tree implies ends that connection (and only that
// connection) before anything is allocated for it.
func TestTCPServerRequestCaps(t *testing.T) {
	remote, inner := startTCP(t, 64)
	addr := remote.conn.RemoteAddr().String()
	depth := uint64(inner.Depth())
	u64 := binary.BigEndian.AppendUint64
	frame := func(op byte, fields ...uint64) []byte {
		b := append(u64(nil, 1), op)
		for _, f := range fields {
			b = u64(b, f)
		}
		return b
	}
	cases := []struct {
		name string
		req  []byte
	}{
		{"retired single-path opcode", frame(1, 0)},
		{"read count", frame(opReadPaths, maxWirePaths+1)},
		{"write count", frame(opWritePaths, 1<<40)},
		{"write bucket count", frame(opWritePaths, 1, 0, depth+1)},
		{"write bucket size", frame(opWritePaths, 1, 0, depth, cipherBufCap+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := conn.Write(tc.req); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("server answered a malformed request (n=%d, err=%v), want hang-up", n, err)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("request decoder allocated %d bytes", grew)
			}
		})
	}
	// Other connections never noticed.
	if _, err := remote.ReadPath(0); err != nil {
		t.Fatalf("well-behaved connection lost: %v", err)
	}
}

// BenchmarkTCPPath measures one raw path round trip over the wire —
// the unit the batch transport amortizes.
func BenchmarkTCPPath(b *testing.B) {
	remote, _ := startTCP(b, 1024)
	path := make([][]byte, remote.Depth())
	for l := range path {
		path[l] = bytes.Repeat([]byte{byte(l)}, bucketPlain)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaf := uint64(i) % remote.Leaves()
		if err := remote.WritePath(leaf, path); err != nil {
			b.Fatal(err)
		}
		if _, err := remote.ReadPath(leaf); err != nil {
			b.Fatal(err)
		}
	}
}

// linkServer wraps a Server with a modeled service latency: a fixed
// per-REQUEST round trip (the off-chip link between the Hypervisor and
// the SP's ORAM server — the paper measures 2 ms over Ethernet; the
// benchmark requests 100 µs so loopback TCP pays a real but smaller
// link cost) plus a per-PATH serial processing charge modeling the
// server's bucket-store work: each path query is depth × Z random
// ~1 KB bucket I/Os against the SP's disk-backed store (the paper's
// 1.1 TB tree does not fit in memory) plus index logic, SSD-class. Server processing is
// serial per path WITHIN a server — the very §VI-D bottleneck sharding
// attacks — so a K-shard fan-out overlaps K of these queues.
type linkServer struct {
	Server
	rtt     time.Duration
	perPath time.Duration
}

func (l *linkServer) ReadPath(leaf uint64) ([][]byte, error) {
	time.Sleep(l.rtt + l.perPath)
	return l.Server.ReadPath(leaf)
}

func (l *linkServer) WritePath(leaf uint64, buckets [][]byte) error {
	time.Sleep(l.rtt + l.perPath)
	return l.Server.WritePath(leaf, buckets)
}

func (l *linkServer) ReadPaths(leaves []uint64) ([][][]byte, error) {
	time.Sleep(l.rtt + time.Duration(len(leaves))*l.perPath)
	return l.Server.ReadPaths(leaves)
}

func (l *linkServer) WritePaths(leaves []uint64, paths [][][]byte) error {
	time.Sleep(l.rtt + time.Duration(len(leaves))*l.perPath)
	return l.Server.WritePaths(leaves, paths)
}

// startLinkTCP spins up one TCP-served shard behind a linkServer and
// returns the dialed transport.
func startLinkTCP(b *testing.B, capacity uint64, rtt, perPath time.Duration) *RemoteServer {
	b.Helper()
	inner, err := NewMemServer(capacity)
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := ServeTCP(&linkServer{Server: inner, rtt: rtt, perPath: perPath}, l)
	b.Cleanup(func() { _ = srv.Close() })
	remote, err := DialServer(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = remote.Close() })
	return remote
}

// balancedIDs returns `blocks` block ids interleaved so that every run
// of `batch` consecutive ids touches each of the `shards` shards
// exactly batch/shards times (batch and blocks must divide evenly).
// The benchmark measures fan-out SCALING, so it feeds a shard-balanced
// load: with only 32 ids per round, the hashed assignment's binomial
// imbalance (E[max] ≈ 11 of 32 at K=4) would gate every round on the
// luckiest shard and measure hash variance, not the fan-out. Real
// pager batches are larger and amortize that variance; the benchtab
// -oram sweep covers the hashed/unbalanced case.
func balancedIDs(blocks, shards int) []BlockID {
	pools := make([][]BlockID, shards)
	per := blocks / shards
	filled := 0
	for id := 0; filled < blocks; id++ {
		sh := shardOf(BlockID(id), shards)
		if len(pools[sh]) < per {
			pools[sh] = append(pools[sh], BlockID(id))
			filled++
		}
	}
	ids := make([]BlockID, blocks)
	for i := range ids {
		ids[i] = pools[i%shards][i/shards]
	}
	return ids
}

// BenchmarkORAMBatch measures one batched read round across shard
// counts 1/2/4/8, each shard a TCP-served tree behind the modeled link
// (see linkServer). Aggregate capacity is constant — a 4-shard point is
// four quarter-size trees — so the comparison isolates the fan-out.
// Each sub-benchmark reports "scaling-x": single-shard ns/op divided by
// its own, i.e. the read-throughput multiple over the unsharded
// baseline. The serial per-path server queue dominates a batch round,
// and sharding divides that queue K ways, so shards-4 is expected to
// clear 3x (on-chip client crypto stays serial and caps the gain below
// the ideal 4x).
func BenchmarkORAMBatch(b *testing.B) {
	const (
		batch    = 32
		totalCap = 4096
		blocks   = 128
		linkRTT  = 100 * time.Microsecond
		// perPath: one path query against a disk-backed bucket store is
		// depth × Z ≈ 40-48 random ~1 KB bucket I/Os plus index logic at
		// commodity-SSD latency — about 2 ms of serial server work.
		perPath = 2 * time.Millisecond
	)
	var baselineNs float64 // shards-1 ns/op, set before the scaled runs
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			perShard := uint64((totalCap + shards - 1) / shards)
			servers := make([]Server, shards)
			for i := range servers {
				servers[i] = startLinkTCP(b, perShard, linkRTT, perPath)
			}
			cli, err := NewClient(servers, testKey())
			if err != nil {
				b.Fatal(err)
			}
			ids := balancedIDs(blocks, shards)
			ops := make([]BatchOp, 0, batch)
			for lo := 0; lo < blocks; lo += batch {
				ops = ops[:0]
				for i := lo; i < lo+batch; i++ {
					ops = append(ops, BatchOp{Op: OpWrite, ID: ids[i], Data: []byte{byte(i)}})
				}
				if _, err := cli.AccessBatch(context.Background(), ops); err != nil {
					b.Fatal(err)
				}
			}
			reads := make([]BlockID, batch)
			b.ReportAllocs()
			b.ResetTimer()
			next := 0
			for i := 0; i < b.N; i++ {
				for j := range reads {
					reads[j] = ids[next%blocks]
					next++
				}
				if _, err := readMany(context.Background(), cli, reads); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if shards == 1 {
				baselineNs = nsPerOp
			} else if baselineNs > 0 {
				b.ReportMetric(baselineNs/nsPerOp, "scaling-x")
			}
		})
	}
}
