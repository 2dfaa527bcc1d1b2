package session

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"hardtape/internal/fuzzcheck"
)

// FuzzParseMuxFrame: every frame either fails with ErrBadMuxFrame or
// splits into parts that re-encode to the same bytes. The corpus holds
// untraced and traced frames and frames one byte short of each header.
func FuzzParseMuxFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		fuzzcheck.Allocs(t, fuzzcheck.Slack, func() {
			reqID, kind, tc, body, err := ParseMuxFrame(frame)
			if err != nil {
				if !errors.Is(err, ErrBadMuxFrame) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if reqID != binary.BigEndian.Uint64(frame) || kind&MuxFlagTraced != 0 {
				t.Fatalf("frame % x parsed as id %d kind %#x", frame, reqID, kind)
			}
			// A traced frame with a zero context re-encodes untraced.
			if traced := frame[8]&MuxFlagTraced != 0; traced == tc.Valid() {
				if got := EncodeMuxFrame(reqID, kind, tc, body); !bytes.Equal(got, frame) {
					t.Fatalf("frame % x re-encodes as % x", frame, got)
				}
			}
		})
	})
}

// fuzzEpoch is the fuzz issuer's clock, which never advances.
var fuzzEpoch = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// fuzzIssuer is a ticket issuer under a fixed STEK and clock, so the
// committed corpus can hold tickets that really redeem: a ticket for
// serial "HT-7" (see testState) and its truncated and bit-flipped
// variants. Production issuers draw their STEK from crypto/rand.
func fuzzIssuer(t testing.TB) *TicketIssuer {
	blk, err := aes.NewCipher(bytes.Repeat([]byte{0x5e}, 32))
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		t.Fatal(err)
	}
	return &TicketIssuer{
		clock:    NewFakeClock(fuzzEpoch),
		lifetime: DefaultTicketLifetimeEpochs,
		keyID:    [ticketKeyIDLen]byte{'f', 'u', 'z', 'z'},
		aead:     aead,
		redeemed: make(map[[16]byte]uint64),
	}
}

// FuzzRedeem: a wire ticket either fails with one of the three ticket
// errors or redeems exactly once into state no larger than the wire.
func FuzzRedeem(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire []byte) {
		ti := fuzzIssuer(t)
		fuzzcheck.Allocs(t, fuzzcheck.Slack+4*uint64(len(wire)), func() {
			st, err := ti.Redeem(wire)
			if err != nil {
				if !errors.Is(err, ErrTicketTampered) && !errors.Is(err, ErrTicketExpired) && !errors.Is(err, ErrTicketReplayed) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if len(st.Serial) > len(wire) || st.ExpiryEpoch < ti.Epoch() {
				t.Fatalf("redeemed state %+v from %d bytes", st, len(wire))
			}
			if _, err := ti.Redeem(wire); !errors.Is(err, ErrTicketReplayed) {
				t.Fatalf("second redeem: %v, want ErrTicketReplayed", err)
			}
		})
	})
}
