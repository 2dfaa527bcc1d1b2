package channel

import (
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
