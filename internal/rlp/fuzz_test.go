package rlp

import (
	"bytes"
	"errors"
	"testing"

	"hardtape/internal/fuzzcheck"
)

// FuzzDecode: Decode accepts only canonical encodings, so every input
// either fails with a typed error or re-encodes to itself. The corpus
// holds canonical strings and lists of every length class, nested
// lists, and non-canonical, truncated and trailing-byte variants.
func FuzzDecode(f *testing.F) {
	typed := []error{ErrTruncated, ErrTrailingBytes, ErrNonCanonical, ErrTooDeep}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each input byte can become one item: its struct, a copy and a
		// share of its parent's child slice.
		fuzzcheck.Allocs(t, fuzzcheck.Slack+256*uint64(len(data)), func() {
			it, err := Decode(data)
			if err != nil {
				for _, want := range typed {
					if errors.Is(err, want) {
						return
					}
				}
				t.Fatalf("untyped error: %v", err)
			}
			if got := it.Encode(); !bytes.Equal(got, data) {
				t.Fatalf("% x decodes to an item encoding as % x", data, got)
			}
		})
	})
}
