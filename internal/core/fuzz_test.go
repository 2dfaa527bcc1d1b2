package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hardtape/internal/fuzzcheck"
	"hardtape/internal/types"
	"hardtape/internal/workload"
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

// FuzzBundleParity is the bundle-scale differential check: each input
// is init code, run as a four-transaction bundle — two CREATEs carrying
// it from two senders, then two ERC-20 transfers to one recipient, so
// speculative lanes conflict — on a commit-lane-only device, on a
// 4-lane device and on the baseline.Geth oracle. Both devices' traces
// must equal the oracle's, or all three must fail with the same apply
// error. Every transaction's gas is capped at 300 000, below the memory
// cost of a 512 KB frame, so no HEVM abort can occur.
func FuzzBundleParity(f *testing.F) {
	r := buildParallelRig(f, ConfigRaw, 4, false)
	w := r.world
	recipient := w.EOAs[len(w.EOAs)-1]
	token := w.Tokens[0]
	push20 := func(a types.Address) []byte { return append([]byte{0x73}, a[:]...) }

	f.Add([]byte{0x00}) // STOP
	// SSTORE loop, slots 0..7 = their index: PUSH1 0; JUMPDEST; DUP1 DUP1
	// SSTORE; PUSH1 1 ADD; DUP1 PUSH1 8 GT; PUSH1 2 JUMPI; STOP.
	f.Add([]byte{0x60, 0x00, 0x5b, 0x80, 0x80, 0x55, 0x60, 0x01, 0x01, 0x80, 0x60, 0x08, 0x11, 0x60, 0x02, 0x57, 0x00})
	f.Add(tokenCallInit(token, workload.CalldataTransfer(recipient, 0)))
	f.Add([]byte{0x60, 0x00, 0x60, 0x00, 0xfd})                   // REVERT
	f.Add(append(push20(recipient), 0xff))                        // SELFDESTRUCT
	f.Add([]byte{0x60, 0x01, 0x62, 0x04, 0x00, 0x00, 0x52, 0x00}) // MSTORE at 256 KiB

	const gas = 300_000
	f.Fuzz(func(t *testing.T, initCode []byte) {
		var txs []*types.Transaction
		add := func(from types.Address, to *types.Address, data []byte) {
			tx, err := w.SignedTxAt(from, 0, to, 0, data, gas)
			if err != nil {
				t.Fatal(err)
			}
			txs = append(txs, tx)
		}
		add(w.EOAs[0], nil, initCode)
		add(w.EOAs[1], nil, initCode)
		add(w.EOAs[2], &token, workload.CalldataTransfer(recipient, 5))
		add(w.EOAs[3], &token, workload.CalldataTransfer(recipient, 7))
		b := &types.Bundle{Txs: txs}

		want, wantErr := r.geth.ExecuteBundle(b)
		for _, dev := range []*Device{r.seq, r.par} {
			name := fmt.Sprintf("%d lanes", dev.cfg.Lanes)
			got, err := dev.Execute(b)
			switch {
			case wantErr != nil:
				// Both wrap the same "tx N: <apply error>".
				if err == nil || strings.TrimPrefix(err.Error(), "core: ") !=
					strings.TrimPrefix(wantErr.Error(), "baseline: geth ") {
					t.Fatalf("%s: error %v, oracle %v", name, err, wantErr)
				}
			case err != nil:
				t.Fatalf("%s: %v (oracle succeeded)", name, err)
			default:
				assertOracleParity(t, name, want, got)
			}
		}
	})
}

// tokenCallInit is init code that calls target with data (stored to
// memory one word at a time) and stops.
func tokenCallInit(target types.Address, data []byte) []byte {
	var code []byte
	for off := 0; off < len(data); off += 32 {
		var word [32]byte
		copy(word[:], data[off:])
		code = append(code, 0x7f) // PUSH32 word
		code = append(code, word[:]...)
		code = append(code, 0x60, byte(off), 0x52) // PUSH1 off MSTORE
	}
	// CALL(gas, target, 0, 0, len(data), 0, 32): arguments pushed last first.
	code = append(code, 0x60, 0x20, 0x60, 0x00, 0x60, byte(len(data)), 0x60, 0x00, 0x60, 0x00, 0x73)
	code = append(code, target[:]...)
	return append(code, 0x5a, 0xf1, 0x50, 0x00) // GAS CALL POP STOP
}
