package oram

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
)

// stepResult is what one scripted op returned: the paths (nil entries
// normalized to empty) and the error class.
type stepResult struct {
	Step  string
	Paths [][][]byte
	Class string
}

// errClass reduces an error to what every deployment agrees on. The TCP
// transport flattens a remote refusal to an ErrWire-wrapped message, so
// "the server refused" is one class however it travelled.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTampered):
		return "tampered"
	default:
		return "refused"
	}
}

// testPath builds a depth-long bucket list whose contents encode tag and
// level, with a different length per level.
func testPath(depth int, tag byte) [][]byte {
	path := make([][]byte, depth)
	for l := range path {
		path[l] = bytes.Repeat([]byte{tag, byte(l)}, 20+l)
	}
	return path
}

// runServerScript drives the same op sequence against srv and returns
// every step's outcome plus the adversary-visible event stream store
// observed. srv is store itself or a transport in front of it.
func runServerScript(t *testing.T, srv Server, store *MemServer) ([]stepResult, []AccessEvent) {
	t.Helper()
	var events []AccessEvent
	store.SetObserver(func(ev AccessEvent) { events = append(events, ev) })
	defer store.SetObserver(nil)

	depth, leaves := srv.Depth(), srv.Leaves()
	last := leaves - 1
	var results []stepResult
	record := func(step string, paths [][][]byte, err error) {
		norm := make([][][]byte, len(paths))
		for i, path := range paths {
			norm[i] = make([][]byte, len(path))
			for l, b := range path {
				norm[i][l] = append([]byte{}, b...)
			}
		}
		results = append(results, stepResult{Step: step, Paths: norm, Class: errClass(err)})
	}
	readPath := func(step string, leaf uint64) {
		path, err := srv.ReadPath(leaf)
		if err != nil {
			record(step, nil, err)
			return
		}
		record(step, [][][]byte{path}, nil)
	}

	// Never-written nodes.
	readPath("read fresh", 0)
	paths, err := srv.ReadPaths([]uint64{0, last})
	record("batch read fresh", paths, err)

	// Single write, single reads: leaf 1 in full, and the far leaf that
	// shares only the root with it.
	record("write 1", nil, srv.WritePath(1, testPath(depth, 0xA0)))
	readPath("read 1", 1)
	readPath("read last", last)

	// Batched write with a duplicate leaf (the later write wins on the
	// shared buckets), batched read in a different order.
	record("batch write", nil, srv.WritePaths(
		[]uint64{0, 3, 3},
		[][][]byte{testPath(depth, 0xB0), testPath(depth, 0xB1), testPath(depth, 0xB2)}))
	paths, err = srv.ReadPaths([]uint64{3, 0, last, 1})
	record("batch read", paths, err)

	// Refusals. Each leaves the store and the connection usable.
	readPath("read out of range", leaves)
	paths, err = srv.ReadPaths([]uint64{0, leaves + 7})
	record("batch read out of range", paths, err)
	record("write out of range", nil, srv.WritePath(leaves, testPath(depth, 0xC0)))
	record("write short path", nil, srv.WritePath(0, testPath(depth-1, 0xC1)))
	record("write long path", nil, srv.WritePath(0, testPath(depth+1, 0xC2)))
	record("batch write count mismatch", nil, srv.WritePaths([]uint64{0, 1}, [][][]byte{testPath(depth, 0xC3)}))
	oversize := testPath(depth, 0xC4)
	oversize[depth-1] = make([]byte, cipherBufCap+1)
	record("write oversize bucket", nil, srv.WritePath(0, oversize))
	largest := testPath(depth, 0xC5)
	largest[depth-1] = bytes.Repeat([]byte{0xC5}, cipherBufCap)
	record("write largest bucket", nil, srv.WritePath(2, largest))
	readPath("read after refusals", 2)

	// The A6 adversary flips a stored byte; the next read carries it.
	store.TamperBucket(1)
	readPath("read tampered", 1)
	return results, events
}

// TestServerConformance: MemServer alone and behind the TCP transport
// is one path server. The same script returns identical bytes, shows
// the adversary an identical event stream and refuses the same
// requests, however the request travelled.
func TestServerConformance(t *testing.T) {
	backends := []struct {
		name    string
		overTCP bool
	}{
		{"mem", false},
		{"mem/tcp", true},
	}

	var wantResults []stepResult
	var wantEvents []AccessEvent
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			store, err := NewMemServer(64)
			if err != nil {
				t.Fatal(err)
			}
			var srv Server = store
			if be.overTCP {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				tcp := ServeTCP(store, l)
				t.Cleanup(func() { _ = tcp.Close() })
				remote, err := DialServer(tcp.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = remote.Close() })
				if remote.Depth() != store.Depth() || remote.Leaves() != store.Leaves() {
					t.Fatalf("geometry over TCP: %d/%d, store %d/%d",
						remote.Depth(), remote.Leaves(), store.Depth(), store.Leaves())
				}
				srv = remote
			}
			results, events := runServerScript(t, srv, store)
			if wantResults == nil {
				wantResults, wantEvents = results, events
				checkScriptOutcome(t, results, events, store.Depth(), store.Leaves()-1)
				return
			}
			for i, got := range results {
				if want := wantResults[i]; !reflect.DeepEqual(got, want) {
					t.Errorf("step %q diverges from mem:\n got %s\nwant %s", got.Step, describe(got), describe(want))
				}
			}
			if !reflect.DeepEqual(events, wantEvents) {
				t.Errorf("adversary event stream diverges from mem:\n got %v\nwant %v", events, wantEvents)
			}
		})
	}
}

func describe(r stepResult) string {
	var sizes []int
	for _, path := range r.Paths {
		for _, b := range path {
			sizes = append(sizes, len(b))
		}
	}
	return fmt.Sprintf("%s, %d paths, bucket sizes %v", r.Class, len(r.Paths), sizes)
}

// checkScriptOutcome pins the reference run itself, so "all four agree"
// cannot mean "all four are wrong the same way".
func checkScriptOutcome(t *testing.T, results []stepResult, events []AccessEvent, depth int, last uint64) {
	t.Helper()
	byStep := make(map[string]stepResult, len(results))
	for _, r := range results {
		byStep[r.Step] = r
	}
	wantClass := map[string]string{
		"read fresh": "ok", "batch read fresh": "ok", "write 1": "ok", "read 1": "ok",
		"read last": "ok", "batch write": "ok", "batch read": "ok",
		"read out of range": "refused", "batch read out of range": "refused",
		"write out of range": "refused", "write short path": "refused",
		"write long path": "refused", "batch write count mismatch": "refused",
		"write oversize bucket": "refused", "write largest bucket": "ok",
		"read after refusals": "ok", "read tampered": "ok",
	}
	if len(results) != len(wantClass) {
		t.Fatalf("script ran %d steps, expectations cover %d", len(results), len(wantClass))
	}
	for step, want := range wantClass {
		if got := byStep[step].Class; got != want {
			t.Errorf("step %q: %s, want %s", step, got, want)
		}
	}
	for _, b := range byStep["read fresh"].Paths[0] {
		if len(b) != 0 {
			t.Error("a never-written node served bytes")
		}
	}
	wrote := testPath(depth, 0xA0)
	read1 := byStep["read 1"].Paths[0]
	for l := range wrote {
		if !bytes.Equal(read1[l], wrote[l]) {
			t.Errorf("read 1 level %d: not what write 1 stored", l)
		}
	}
	far := byStep["read last"].Paths[0]
	if !bytes.Equal(far[0], wrote[0]) || len(far[depth-1]) != 0 {
		t.Error("read last: want the shared root and an unwritten leaf bucket")
	}
	batch := byStep["batch read"].Paths
	if got, want := batch[0][depth-1], testPath(depth, 0xB2)[depth-1]; !bytes.Equal(got, want) {
		t.Error("batch read: duplicate leaf 3 does not hold the later write")
	}
	if got, want := batch[1][depth-1], testPath(depth, 0xB0)[depth-1]; !bytes.Equal(got, want) {
		t.Error("batch read: leaf 0 does not hold its write")
	}
	if got := byStep["read after refusals"].Paths[0][depth-1]; len(got) != cipherBufCap {
		t.Errorf("largest legal bucket came back as %d bytes", len(got))
	}
	// TamperBucket flips the last byte of the first stored bucket on the
	// path: the root, last written by "write largest bucket".
	tampered := byStep["read tampered"].Paths[0][0]
	root := testPath(depth, 0xC5)[0]
	if len(tampered) != len(root) || tampered[len(root)-1] != root[len(root)-1]^0x01 ||
		!bytes.Equal(tampered[:len(root)-1], root[:len(root)-1]) {
		t.Error("read tampered: root bucket does not carry exactly the flipped byte")
	}

	// One event per served path, numbered without gaps; refused requests
	// show nothing except the in-range prefix of a failing batch.
	wantEvents := []AccessEvent{
		{Leaf: 0}, {Leaf: 0}, {Leaf: last}, // fresh reads
		{Leaf: 1, Write: true}, {Leaf: 1}, {Leaf: last},
		{Leaf: 0, Write: true}, {Leaf: 3, Write: true}, {Leaf: 3, Write: true},
		{Leaf: 3}, {Leaf: 0}, {Leaf: last}, {Leaf: 1},
		{Leaf: 0},              // batch read out of range: leaf 0 was served first
		{Leaf: 2, Write: true}, // largest bucket
		{Leaf: 2}, {Leaf: 1},
	}
	if len(events) != len(wantEvents) {
		t.Fatalf("adversary saw %d events, want %d: %v", len(events), len(wantEvents), events)
	}
	for i, ev := range events {
		want := wantEvents[i]
		want.Seq = uint64(i + 1)
		if ev != want {
			t.Errorf("event %d: %+v, want %+v", i, ev, want)
		}
	}
}
