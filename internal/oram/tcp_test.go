package oram

import (
	"bytes"
	"errors"
	"fmt"
	"net"
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
		if err := cli.Write(BlockID(i), []byte(fmt.Sprintf("remote-%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		got, err := cli.Read(BlockID(i))
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
	if err := cli1.Write(7, []byte("shared")); err != nil {
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
	if err := cli2.Write(900, []byte("second client")); err != nil {
		t.Fatal(err)
	}
	got, err := cli2.Read(900)
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

// TestTCPPipelinedConcurrent exercises the pipelined wire protocol
// under -race: many goroutines share ONE RemoteServer connection (the
// in-flight request map and write coalescing must hold up), while
// additional independent connections hammer the same TCPServer.
// ORAM *clients* are single-goroutine by contract, so this drives the
// raw transport ops directly.
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
// ~1 KB bucket I/Os against a disk-backed store (oram.FileServer's
// deployment shape) plus index logic, SSD-class. Server processing is
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

// BenchmarkORAMBatch measures one batched ReadMany round across shard
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
				if _, err := cli.AccessBatch(ops); err != nil {
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
				if _, err := cli.ReadMany(reads); err != nil {
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
