package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/fuzzcheck"
	"hardtape/internal/telemetry"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// wireRoundTrips holds one entry per message decoder: decode the
// payload, then re-encode what came out. FuzzDecodeMessage indexes it
// by its input's first byte, so the order is the seed corpus's too.
var wireRoundTrips = [...]struct {
	name string
	rt   func([]byte) ([]byte, error)
}{
	{"attest-request", reencode(decodeFixed32, appendFixed32)},
	{"attest-report", reencode(decodeAttestReport, appendAttestReport)},
	{"key-exchange", reencode(decodeKeyExchange, appendKeyExchange)},
	{"resume-request", reencode(decodeResumeRequest, appendResumeRequest)},
	{"resume-accept", reencode(decodeResumeAccept, appendResumeAccept)},
	{"resume-reject", reencode(decodeResumeReject, func(b []byte, code *uint8) []byte { return append(b, *code) })},
	{"resume-confirm", reencode(decodeFixed32, appendFixed32)},
	{"ticket-issue", reencode(decodeTicketIssue, appendTicketIssue)},
	{"status", reencode(decodeStatus, appendStatus)},
	{"bundle", reencode(decodeBundle, func(b []byte, bundle **types.Bundle) []byte { return appendBundle(b, *bundle) })},
	{"trace", reencode(decodeTrace, appendTrace)},
}

func appendFixed32(b []byte, v *[32]byte) []byte { return append(b, v[:]...) }

func reencode[T any](decode func([]byte) (T, error), encode func([]byte, *T) []byte) func([]byte) ([]byte, error) {
	return func(p []byte) ([]byte, error) {
		v, err := decode(p)
		if err != nil {
			return nil, err
		}
		return encode(nil, &v), nil
	}
}

// sampleWireMessages returns one valid payload per decoder, in
// wireRoundTrips order, with every optional field present and every
// list non-empty.
func sampleWireMessages() [len(wireRoundTrips)][]byte {
	tag := [32]byte{1, 2, 3}
	u := func(v uint64) *uint256.Int { return uint256.NewInt(v) }
	to := types.Address{0xaa}
	tx := &types.Transaction{Nonce: 3, GasPrice: u(1), GasLimit: 21000, To: &to, Value: u(5), Data: []byte{0xde, 0xad}, R: u(7), S: u(8), V: 1}
	create := &types.Transaction{GasLimit: 90000, Data: []byte{0x60, 0x00}}
	trace := traceMsg{
		Trace: tracer.BundleTrace{StateBlock: 9, Txs: []*tracer.TxTrace{{
			TxHash: types.Hash{1}, GasUsed: 21000, ReturnData: []byte{1}, Reverted: true,
			Steps:        []tracer.Step{{Depth: 1, PC: 2, Op: 0x54, Gas: 100, Cost: 3, StackLen: 4}},
			Calls:        []tracer.CallRecord{{Kind: 1, Depth: 1, From: to, Value: u(1), Gas: 5, GasUsed: 4, InputSize: 36, ReturnSize: 32, Failed: true}},
			Storage:      []types.StorageAccess{{Address: to, Slot: types.Hash{2}, Value: types.Hash{3}, Write: true}},
			Logs:         []*types.Log{{Address: to, Topics: []types.Hash{{4}}, Data: []byte{5}}},
			MaxCallDepth: 2,
		}}},
		VirtualTime: time.Millisecond, AbortReason: "overflow", GasUsed: 21000,
		TraceSpans: []telemetry.SpanRecord{{
			Trace: telemetry.TraceID{1}, Span: telemetry.SpanID{2}, Parent: telemetry.SpanID{3},
			Name: "device.exec", Proc: "device", Start: time.Unix(1_700_000_000, 123), Duration: time.Microsecond,
			Attrs: []telemetry.Attr{{Name: "txs", Int: 1}, {Name: "backend", Int: 2}}, Err: true,
		}},
	}
	return [...][]byte{
		tag[:],
		appendAttestReport(nil, &attestReportMsg{
			Report: attest.Report{
				Cert:        attest.Certificate{Serial: "dev-1", DevicePub: []byte{4, 1}, Sig: []byte{0x30}},
				Measurement: [32]byte{9}, SessionPub: []byte{4, 2}, Nonce: tag, Sig: []byte{0x30, 1},
			},
			SessionID: 7, DevSigPub: []byte{4, 3},
		}),
		appendKeyExchange(nil, &keyExchangeMsg{SessionID: 7, UserPub: []byte{4, 4}, UserSigPub: []byte{4, 5}, Confirm: tag}),
		appendResumeRequest(nil, &resumeRequestMsg{Ticket: []byte{1, 2, 3}, ClientNonce: [16]byte{6}}),
		appendResumeAccept(nil, &resumeAcceptMsg{SessionID: 8, ServerNonce: [16]byte{7}, Confirm: tag}),
		{3},
		tag[:],
		appendTicketIssue(nil, &ticketIssueMsg{Ticket: []byte{9, 9}, ExpiryEpoch: 42}),
		appendStatus(nil, &statusMsg{FreeSlots: 1, Capacity: 2}),
		appendBundle(nil, &types.Bundle{StateBlock: 4, Txs: []*types.Transaction{tx, create}}),
		appendTrace(nil, &trace),
	}
}

// TestWireMinSizesMatchZeroElements: each repeated element's zero value
// encodes to exactly the smallest size its count is checked against. A
// bound above the true minimum would refuse valid messages; one below
// it would let a count buy more allocation than its bytes justify.
func TestWireMinSizesMatchZeroElements(t *testing.T) {
	one := func(b []byte) int { return len(b) - 4 - 8 } // minus the count and the leading u64
	trace := func(tt tracer.TxTrace) []byte {
		return appendTrace(nil, &traceMsg{Trace: tracer.BundleTrace{Txs: []*tracer.TxTrace{&tt}}})
	}
	empty := len(trace(tracer.TxTrace{}))
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"tx", one(appendBundle(nil, &types.Bundle{Txs: []*types.Transaction{{}}})), minTxSize},
		{"txTrace", len(appendTxTrace(nil, &tracer.TxTrace{})), minTxTrace},
		{"step", len(trace(tracer.TxTrace{Steps: make([]tracer.Step, 1)})) - empty, stepSize},
		{"call", len(trace(tracer.TxTrace{Calls: make([]tracer.CallRecord, 1)})) - empty, minCallSize},
		{"access", len(trace(tracer.TxTrace{Storage: make([]types.StorageAccess, 1)})) - empty, accessSize},
		{"log", len(trace(tracer.TxTrace{Logs: []*types.Log{{}}})) - empty, minLogSize},
		{"topic", len(trace(tracer.TxTrace{Logs: []*types.Log{{Topics: make([]types.Hash, 1)}}})) - empty - minLogSize, topicSize},
		{"span", len(appendSpan(nil, &telemetry.SpanRecord{})), minSpanSize},
		{"attr", len(appendSpan(nil, &telemetry.SpanRecord{Attrs: make([]telemetry.Attr, 1)})) - minSpanSize, minAttrSize},
	} {
		if c.got != c.want {
			t.Errorf("%s: zero element encodes to %d bytes, bound says %d", c.name, c.got, c.want)
		}
	}
}

// TestWireRoundTripsEveryMessage: every sample payload decodes and
// re-encodes to itself, and the handshake messages decode to the values
// that produced them.
func TestWireRoundTripsEveryMessage(t *testing.T) {
	for i, p := range sampleWireMessages() {
		got, err := wireRoundTrips[i].rt(p)
		if err != nil {
			t.Fatalf("%s: %v", wireRoundTrips[i].name, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("%s: re-encodes to % x, want % x", wireRoundTrips[i].name, got, p)
		}
	}
	kx := keyExchangeMsg{SessionID: 1, UserPub: []byte{4}, Confirm: [32]byte{5}}
	if got, err := decodeKeyExchange(appendKeyExchange(nil, &kx)); err != nil || !reflect.DeepEqual(got, kx) {
		t.Fatalf("key exchange: %+v, %v", got, err)
	}
	st := statusMsg{FreeSlots: -1, Capacity: 8}
	if got, err := decodeStatus(appendStatus(nil, &st)); err != nil || got != st {
		t.Fatalf("status: %+v, %v", got, err)
	}
}

// TestWireRejectsMalformed: every strict prefix of a valid payload, the
// payload plus one trailing byte, a bool that is not 0 or 1, and a count
// no payload could hold are all ErrMalformed — the last without the
// decoder allocating for it.
func TestWireRejectsMalformed(t *testing.T) {
	for i, p := range sampleWireMessages() {
		rt := wireRoundTrips[i]
		for n := 0; n < len(p); n++ {
			if _, err := rt.rt(p[:n]); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s truncated to %d bytes: %v", rt.name, n, err)
			}
		}
		if _, err := rt.rt(append(p[:len(p):len(p)], 0)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s with a trailing byte: %v", rt.name, err)
		}
	}
	status := appendStatus(nil, &statusMsg{})
	trace := appendTrace(nil, &traceMsg{})
	trace[8+4+8+4] = 2 // the failed flag
	if _, err := decodeTrace(trace); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bool 2: %v", err)
	}
	huge := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	fuzzcheck.Allocs(t, 1<<10, func() {
		if _, err := decodeBundle(huge); !errors.Is(err, ErrMalformed) {
			t.Fatalf("huge count: %v", err)
		}
	})
	if _, err := decodeStatus(status[:len(status)-1]); !errors.Is(err, ErrProtocol) {
		t.Fatalf("ErrMalformed must wrap ErrProtocol: %v", err)
	}
}
