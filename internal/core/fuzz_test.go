package core

import (
	"bytes"
	"errors"
	"testing"

	"hardtape/internal/fuzzcheck"
)

// FuzzDecodeMessage: the first input byte picks one of the eleven
// message decoders (wireRoundTrips, modulo its length) and the rest is
// that decoder's payload. Every payload either fails with ErrMalformed
// or decodes to a value that re-encodes to exactly the payload, and the
// decoder allocates no more than the payload's bytes justify. The
// corpus holds one valid encoding per message plus truncated,
// trailing-byte and huge-count variants.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rt := wireRoundTrips[int(data[0])%len(wireRoundTrips)].rt
		payload := data[1:]
		// A transaction slot is the largest decoded value per encoded
		// byte (about 250 bytes for 26); re-encoding adds the payload's
		// size again, doubled by append's growth.
		fuzzcheck.Allocs(t, fuzzcheck.Slack+16*uint64(len(payload)), func() {
			got, err := rt(payload)
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("% x decodes to a value encoding as % x", payload, got)
			}
		})
	})
}
