package oram

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"hardtape/internal/fuzzcheck"
)

// wireErr reports whether err is one of the errors the wire decoders
// may return: ErrWire for a refused count or size, or the end of a
// truncated stream.
func wireErr(err error) bool {
	return errors.Is(err, ErrWire) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// FuzzReadLeaves feeds the server's request decoder a request body
// after its id and opcode. The corpus holds the bodies
// TestTCPServerRequestCaps sends plus a valid two-leaf list.
func FuzzReadLeaves(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzcheck.Allocs(t, fuzzcheck.Slack, func() {
			leaves, err := readLeaves(bufio.NewReader(bytes.NewReader(data)))
			if err != nil {
				if !wireErr(err) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if len(leaves) > maxWirePaths || 8+8*len(leaves) > len(data) {
				t.Fatalf("%d leaves from %d bytes", len(leaves), len(data))
			}
		})
	})
}

// FuzzReadPaths feeds the client's response decoder. The first two
// bytes pick the request it answers — 1 + data[0] % maxWirePaths paths
// on a 1 + data[1] % maxWireDepth tree — and the rest is the response
// after its path count. The corpus holds the responses
// TestTCPLyingServerBounded scripts, on its 2-path, depth-5 request.
// Besides the n × depth slots the request implies, each bucket buffer
// must be paid for with its 8-byte size and at least one content byte.
func FuzzReadPaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, depth := 1+int(data[0])%maxWirePaths, 1+int(data[1])%maxWireDepth
		wire := data[2:]
		limit := fuzzcheck.Slack + uint64(n*depth+n)*24 + uint64(len(wire)/9+1)*cipherBufCap
		fuzzcheck.Allocs(t, limit, func() {
			paths, err := readPaths(bufio.NewReader(bytes.NewReader(wire)), n, depth)
			if err != nil {
				if !wireErr(err) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if len(paths) != n {
				t.Fatalf("%d paths, want %d", len(paths), n)
			}
			for _, buckets := range paths {
				if len(buckets) != depth {
					t.Fatalf("%d buckets on a depth-%d path", len(buckets), depth)
				}
				recycleBuckets(buckets)
			}
		})
	})
}
