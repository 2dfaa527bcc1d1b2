package channel

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"testing"

	"hardtape/internal/fuzzcheck"
)

// FuzzOpen feeds arbitrary frames to a receiving channel under a fixed
// session key, with and without the signature layer. The corpus holds
// a valid sealed frame (session 77, seq 1), a signed one, and truncated
// and re-flagged variants. Open must return either a typed error or a
// header of this session with a payload no longer than the frame.
func FuzzOpen(f *testing.F) {
	peer, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	typed := []error{ErrBadHeader, ErrBadMagic, ErrTooLarge, ErrAuthFailed, ErrBadSignature, ErrReplay}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, signing := range []bool{false, true} {
			c, err := NewSecureChannel(sessionKey(), 77)
			if err != nil {
				t.Fatal(err)
			}
			if signing {
				c.EnableSigning(peer, &peer.PublicKey)
			}
			fuzzcheck.Allocs(t, fuzzcheck.Slack+4*uint64(len(frame)), func() {
				h, pt, err := c.Open(frame)
				if err != nil {
					for _, want := range typed {
						if errors.Is(err, want) {
							return
						}
					}
					t.Fatalf("untyped error: %v", err)
				}
				if h.Session != 77 || h.Seq == 0 || len(pt) > len(frame) {
					t.Fatalf("accepted frame: %+v, %d-byte payload from %d bytes", h, len(pt), len(frame))
				}
			})
		}
	})
}

// FuzzParseTraceContext: ParseTraceContext either refuses its input
// with ErrShortTraceContext or splits off a context that
// AppendTraceContext re-encodes to exactly the bytes it consumed. The
// seeds are a valid context with a body behind it, a truncated one and
// an all-zero one.
func FuzzParseTraceContext(f *testing.F) {
	valid := AppendTraceContext(nil, TraceContext{
		Trace: [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Span:  [8]byte{0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8},
	})
	f.Add(append(valid, "body"...))
	f.Add(valid[:TraceContextSize-1])
	f.Add(make([]byte, TraceContextSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		tc, rest, err := ParseTraceContext(b)
		if err != nil {
			if !errors.Is(err, ErrShortTraceContext) || len(b) >= TraceContextSize {
				t.Fatalf("%d bytes refused with %v", len(b), err)
			}
			return
		}
		consumed := len(b) - len(rest)
		if got := AppendTraceContext(nil, tc); !bytes.Equal(got, b[:consumed]) {
			t.Fatalf("re-encoded %x, consumed %x", got, b[:consumed])
		}
		if !bytes.Equal(rest, b[consumed:]) {
			t.Fatalf("rest %x is not the unconsumed tail %x", rest, b[consumed:])
		}
	})
}
