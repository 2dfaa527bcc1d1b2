package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"hardtape/internal/evm"
	"hardtape/internal/telemetry"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// The service's wire codec: one explicit layout per message, the
// paper's fixed-layout parsing (A.E.DMA's 32-byte headers) carried into
// the payloads. A payload rides in one channel message — plaintext
// before the session key exists, sealed after — and bundle, trace and
// status payloads are mux frame bodies (session/mux.go). Integers are
// big-endian and fixed width:
//
//	[n]      n raw bytes (hashes, addresses, nonces, tags)
//	bytes    len u32, len bytes (length 0 decodes as nil)
//	str      len u32, len bytes
//	bool     u8, 0 or 1
//	int      u64, two's complement
//	u256     [32], big-endian
//	opt(x)   u8 0 (nil), or u8 1 then x
//	time     unix seconds int, nanoseconds u32 (< 1e9)
//	n × x    count u32, then count elements
//
//	attest request   nonce [32]
//	attest report    serial str, devicePub bytes, certSig bytes, measurement [32],
//	                 sessionPub bytes, nonce [32], sig bytes, sessionID u64, devSigPub bytes
//	key exchange     sessionID u64, userPub bytes, userSigPub bytes, confirm [32]
//	resume request   ticket bytes, clientNonce [16]
//	resume accept    sessionID u64, serverNonce [16], confirm [32]
//	resume reject    code u8
//	resume confirm   confirm [32]
//	ticket issue     ticket bytes, expiryEpoch u64
//	status request   (empty)
//	status           freeSlots int, capacity int
//	bundle           stateBlock u64, n × tx
//	  tx             nonce u64, gasPrice opt(u256), gasLimit u64, to opt([20]),
//	                 value opt(u256), data bytes, r opt(u256), s opt(u256), v u8
//	trace            stateBlock u64, n × txTrace, virtualTime int, abortReason str,
//	                 failed bool, gasUsed u64, n × span
//	  txTrace        hash [32], gasUsed u64, returnData bytes, reverted bool,
//	                 failed bool, n × step, n × call, n × access, n × log, maxCallDepth int
//	  step           depth int, pc u64, op u8, gas u64, cost u64, stackLen int
//	  call           kind int, depth int, from [20], to [20], value opt(u256), gas u64,
//	                 gasUsed u64, inputSize int, returnSize int, reverted bool, failed bool
//	  access         address [20], slot [32], value [32], write bool
//	  log            address [20], n × topic [32], data bytes
//	  span           trace [16], span [8], parent [8], name str, proc str, start time,
//	                 duration int, n × attr, failed bool
//	  attr           name str, int int
//
// Every decoder reads bytes a peer chose, and six of them (attest
// request and report, key exchange, resume request, accept and reject)
// read them before any key exists. So the reader checks each length,
// and each count times its element's smallest encoding, against the
// bytes that remain before it allocates; it refuses a bool other than 0
// or 1 and nanoseconds past 1e9, so a decoded value re-encodes to
// exactly its input; and it requires the payload consumed to its last
// byte. The first fault sticks and is the decoder's error, wrapping
// ErrMalformed. Lengths and counts fit u32 because the channel refuses
// any payload above channel.MaxPayload.

// ErrMalformed reports a payload that does not match its message's
// layout.
var ErrMalformed = fmt.Errorf("%w: malformed payload", ErrProtocol)

// Smallest encodings of the repeated elements, the bound each count is
// checked against.
const (
	minTxSize   = 8 + 1 + 8 + 1 + 1 + 4 + 1 + 1 + 1
	minTxTrace  = 32 + 8 + 4 + 1 + 1 + 4*4 + 8
	stepSize    = 8 + 8 + 1 + 8 + 8 + 8
	minCallSize = 8 + 8 + 20 + 20 + 1 + 8 + 8 + 8 + 8 + 1 + 1
	accessSize  = 20 + 32 + 32 + 1
	minLogSize  = 20 + 4 + 4
	topicSize   = 32
	minSpanSize = 16 + 8 + 8 + 4 + 4 + 12 + 8 + 4 + 1
	minAttrSize = 4 + 8
)

// --- encoders: each appends one message's layout to b ---

func appendAttestReport(b []byte, m *attestReportMsg) []byte {
	r := &m.Report
	b = appendStr(b, r.Cert.Serial)
	b = appendBytes(b, r.Cert.DevicePub)
	b = appendBytes(b, r.Cert.Sig)
	b = append(b, r.Measurement[:]...)
	b = appendBytes(b, r.SessionPub)
	b = append(b, r.Nonce[:]...)
	b = appendBytes(b, r.Sig)
	b = binary.BigEndian.AppendUint64(b, m.SessionID)
	return appendBytes(b, m.DevSigPub)
}

func appendKeyExchange(b []byte, m *keyExchangeMsg) []byte {
	b = binary.BigEndian.AppendUint64(b, m.SessionID)
	b = appendBytes(b, m.UserPub)
	b = appendBytes(b, m.UserSigPub)
	return append(b, m.Confirm[:]...)
}

func appendResumeRequest(b []byte, m *resumeRequestMsg) []byte {
	b = appendBytes(b, m.Ticket)
	return append(b, m.ClientNonce[:]...)
}

func appendResumeAccept(b []byte, m *resumeAcceptMsg) []byte {
	b = binary.BigEndian.AppendUint64(b, m.SessionID)
	b = append(b, m.ServerNonce[:]...)
	return append(b, m.Confirm[:]...)
}

func appendTicketIssue(b []byte, m *ticketIssueMsg) []byte {
	b = appendBytes(b, m.Ticket)
	return binary.BigEndian.AppendUint64(b, m.ExpiryEpoch)
}

func appendStatus(b []byte, m *statusMsg) []byte {
	b = appendInt(b, int64(m.FreeSlots))
	return appendInt(b, int64(m.Capacity))
}

func appendBundle(b []byte, bundle *types.Bundle) []byte {
	b = binary.BigEndian.AppendUint64(b, bundle.StateBlock)
	b = appendCount(b, len(bundle.Txs))
	for _, tx := range bundle.Txs {
		b = binary.BigEndian.AppendUint64(b, tx.Nonce)
		b = appendOptU256(b, tx.GasPrice)
		b = binary.BigEndian.AppendUint64(b, tx.GasLimit)
		b = appendBool(b, tx.To != nil)
		if tx.To != nil {
			b = append(b, tx.To[:]...)
		}
		b = appendOptU256(b, tx.Value)
		b = appendBytes(b, tx.Data)
		b = appendOptU256(b, tx.R)
		b = appendOptU256(b, tx.S)
		b = append(b, tx.V)
	}
	return b
}

func appendTrace(b []byte, m *traceMsg) []byte {
	b = binary.BigEndian.AppendUint64(b, m.Trace.StateBlock)
	b = appendCount(b, len(m.Trace.Txs))
	for _, t := range m.Trace.Txs {
		b = appendTxTrace(b, t)
	}
	b = appendInt(b, int64(m.VirtualTime))
	b = appendStr(b, m.AbortReason)
	b = appendBool(b, m.Failed)
	b = binary.BigEndian.AppendUint64(b, m.GasUsed)
	b = appendCount(b, len(m.TraceSpans))
	for i := range m.TraceSpans {
		b = appendSpan(b, &m.TraceSpans[i])
	}
	return b
}

func appendTxTrace(b []byte, t *tracer.TxTrace) []byte {
	b = append(b, t.TxHash[:]...)
	b = binary.BigEndian.AppendUint64(b, t.GasUsed)
	b = appendBytes(b, t.ReturnData)
	b = appendBool(b, t.Reverted)
	b = appendBool(b, t.Failed)
	b = appendCount(b, len(t.Steps))
	for _, s := range t.Steps {
		b = appendInt(b, int64(s.Depth))
		b = binary.BigEndian.AppendUint64(b, s.PC)
		b = append(b, byte(s.Op))
		b = binary.BigEndian.AppendUint64(b, s.Gas)
		b = binary.BigEndian.AppendUint64(b, s.Cost)
		b = appendInt(b, int64(s.StackLen))
	}
	b = appendCount(b, len(t.Calls))
	for i := range t.Calls {
		c := &t.Calls[i]
		b = appendInt(b, int64(c.Kind))
		b = appendInt(b, int64(c.Depth))
		b = append(b, c.From[:]...)
		b = append(b, c.To[:]...)
		b = appendOptU256(b, c.Value)
		b = binary.BigEndian.AppendUint64(b, c.Gas)
		b = binary.BigEndian.AppendUint64(b, c.GasUsed)
		b = appendInt(b, int64(c.InputSize))
		b = appendInt(b, int64(c.ReturnSize))
		b = appendBool(b, c.Reverted)
		b = appendBool(b, c.Failed)
	}
	b = appendCount(b, len(t.Storage))
	for i := range t.Storage {
		a := &t.Storage[i]
		b = append(b, a.Address[:]...)
		b = append(b, a.Slot[:]...)
		b = append(b, a.Value[:]...)
		b = appendBool(b, a.Write)
	}
	b = appendCount(b, len(t.Logs))
	for _, l := range t.Logs {
		b = append(b, l.Address[:]...)
		b = appendCount(b, len(l.Topics))
		for _, topic := range l.Topics {
			b = append(b, topic[:]...)
		}
		b = appendBytes(b, l.Data)
	}
	return appendInt(b, int64(t.MaxCallDepth))
}

func appendSpan(b []byte, s *telemetry.SpanRecord) []byte {
	b = append(b, s.Trace[:]...)
	b = append(b, s.Span[:]...)
	b = append(b, s.Parent[:]...)
	b = appendStr(b, s.Name)
	b = appendStr(b, s.Proc)
	b = appendInt(b, s.Start.Unix())
	b = binary.BigEndian.AppendUint32(b, uint32(s.Start.Nanosecond()))
	b = appendInt(b, int64(s.Duration))
	b = appendCount(b, len(s.Attrs))
	for _, a := range s.Attrs {
		b = appendStr(b, a.Name)
		b = appendInt(b, a.Int)
	}
	return appendBool(b, s.Err)
}

func appendCount(b []byte, n int) []byte { return binary.BigEndian.AppendUint32(b, uint32(n)) }

func appendInt(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func appendBytes(b, v []byte) []byte { return append(appendCount(b, len(v)), v...) }

func appendStr(b []byte, s string) []byte { return append(appendCount(b, len(s)), s...) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendOptU256(b []byte, v *uint256.Int) []byte {
	if v == nil {
		return append(b, 0)
	}
	w := v.Bytes32()
	return append(append(b, 1), w[:]...)
}

// --- decoders: each reads exactly one message's layout ---

// decodeFixed32 decodes the two one-field 32-byte messages: the attest
// request's nonce and the resume confirm's tag.
func decodeFixed32(p []byte) (v [32]byte, err error) {
	r := wireReader{buf: p}
	r.read(v[:])
	return v, r.end()
}

func decodeResumeReject(p []byte) (code uint8, err error) {
	r := wireReader{buf: p}
	code = r.u8()
	return code, r.end()
}

func decodeAttestReport(p []byte) (m attestReportMsg, err error) {
	r := wireReader{buf: p}
	rep := &m.Report
	rep.Cert.Serial = r.str()
	rep.Cert.DevicePub = r.bytes()
	rep.Cert.Sig = r.bytes()
	r.read(rep.Measurement[:])
	rep.SessionPub = r.bytes()
	r.read(rep.Nonce[:])
	rep.Sig = r.bytes()
	m.SessionID = r.u64()
	m.DevSigPub = r.bytes()
	return m, r.end()
}

func decodeKeyExchange(p []byte) (m keyExchangeMsg, err error) {
	r := wireReader{buf: p}
	m.SessionID = r.u64()
	m.UserPub = r.bytes()
	m.UserSigPub = r.bytes()
	r.read(m.Confirm[:])
	return m, r.end()
}

func decodeResumeRequest(p []byte) (m resumeRequestMsg, err error) {
	r := wireReader{buf: p}
	m.Ticket = r.bytes()
	r.read(m.ClientNonce[:])
	return m, r.end()
}

func decodeResumeAccept(p []byte) (m resumeAcceptMsg, err error) {
	r := wireReader{buf: p}
	m.SessionID = r.u64()
	r.read(m.ServerNonce[:])
	r.read(m.Confirm[:])
	return m, r.end()
}

func decodeTicketIssue(p []byte) (m ticketIssueMsg, err error) {
	r := wireReader{buf: p}
	m.Ticket = r.bytes()
	m.ExpiryEpoch = r.u64()
	return m, r.end()
}

func decodeStatus(p []byte) (m statusMsg, err error) {
	r := wireReader{buf: p}
	m.FreeSlots = int(r.i64())
	m.Capacity = int(r.i64())
	return m, r.end()
}

// txSlot holds one decoded transaction with the values its pointers
// name, so a bundle's transactions cost one allocation between them.
type txSlot struct {
	tx   types.Transaction
	ints [4]uint256.Int
	to   types.Address
}

func decodeBundle(p []byte) (*types.Bundle, error) {
	r := wireReader{buf: p}
	bundle := &types.Bundle{StateBlock: r.u64()}
	if n := r.count(minTxSize); n > 0 {
		slots := make([]txSlot, n)
		bundle.Txs = make([]*types.Transaction, n)
		for i := range slots {
			s := &slots[i]
			tx := &s.tx
			tx.Nonce = r.u64()
			tx.GasPrice = r.optU256(&s.ints[0])
			tx.GasLimit = r.u64()
			if r.bool() {
				r.read(s.to[:])
				tx.To = &s.to
			}
			tx.Value = r.optU256(&s.ints[1])
			tx.Data = r.bytes()
			tx.R = r.optU256(&s.ints[2])
			tx.S = r.optU256(&s.ints[3])
			tx.V = r.u8()
			bundle.Txs[i] = tx
		}
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return bundle, nil
}

func decodeTrace(p []byte) (m traceMsg, err error) {
	r := wireReader{buf: p}
	m.Trace.StateBlock = r.u64()
	if n := r.count(minTxTrace); n > 0 {
		txs := make([]tracer.TxTrace, n)
		m.Trace.Txs = make([]*tracer.TxTrace, n)
		for i := range txs {
			r.txTrace(&txs[i])
			m.Trace.Txs[i] = &txs[i]
		}
	}
	m.VirtualTime = time.Duration(r.i64())
	m.AbortReason = r.str()
	m.Failed = r.bool()
	m.GasUsed = r.u64()
	if n := r.count(minSpanSize); n > 0 {
		m.TraceSpans = make([]telemetry.SpanRecord, n)
		for i := range m.TraceSpans {
			r.span(&m.TraceSpans[i])
		}
	}
	return m, r.end()
}

func (r *wireReader) txTrace(t *tracer.TxTrace) {
	r.read(t.TxHash[:])
	t.GasUsed = r.u64()
	t.ReturnData = r.bytes()
	t.Reverted = r.bool()
	t.Failed = r.bool()
	if n := r.count(stepSize); n > 0 {
		t.Steps = make([]tracer.Step, n)
		for i := range t.Steps {
			s := &t.Steps[i]
			s.Depth = int(r.i64())
			s.PC = r.u64()
			s.Op = evm.OpCode(r.u8())
			s.Gas = r.u64()
			s.Cost = r.u64()
			s.StackLen = int(r.i64())
		}
	}
	if n := r.count(minCallSize); n > 0 {
		t.Calls = make([]tracer.CallRecord, n)
		values := make([]uint256.Int, n)
		for i := range t.Calls {
			c := &t.Calls[i]
			c.Kind = evm.CallKind(r.i64())
			c.Depth = int(r.i64())
			r.read(c.From[:])
			r.read(c.To[:])
			c.Value = r.optU256(&values[i])
			c.Gas = r.u64()
			c.GasUsed = r.u64()
			c.InputSize = int(r.i64())
			c.ReturnSize = int(r.i64())
			c.Reverted = r.bool()
			c.Failed = r.bool()
		}
	}
	if n := r.count(accessSize); n > 0 {
		t.Storage = make([]types.StorageAccess, n)
		for i := range t.Storage {
			a := &t.Storage[i]
			r.read(a.Address[:])
			r.read(a.Slot[:])
			r.read(a.Value[:])
			a.Write = r.bool()
		}
	}
	if n := r.count(minLogSize); n > 0 {
		logs := make([]types.Log, n)
		t.Logs = make([]*types.Log, n)
		for i := range logs {
			l := &logs[i]
			r.read(l.Address[:])
			if k := r.count(topicSize); k > 0 {
				l.Topics = make([]types.Hash, k)
				for j := range l.Topics {
					r.read(l.Topics[j][:])
				}
			}
			l.Data = r.bytes()
			t.Logs[i] = l
		}
	}
	t.MaxCallDepth = int(r.i64())
}

func (r *wireReader) span(s *telemetry.SpanRecord) {
	r.read(s.Trace[:])
	r.read(s.Span[:])
	r.read(s.Parent[:])
	s.Name = r.str()
	s.Proc = r.str()
	sec, nsec := r.i64(), r.u32()
	if nsec >= 1e9 {
		r.fail("nanoseconds past 1e9")
	}
	s.Start = time.Unix(sec, int64(nsec))
	s.Duration = time.Duration(r.i64())
	if n := r.count(minAttrSize); n > 0 {
		s.Attrs = make([]telemetry.Attr, n)
		for i := range s.Attrs {
			a := &s.Attrs[i]
			a.Name = r.str()
			a.Int = r.i64()
		}
	}
	s.Err = r.bool()
}

// wireReader decodes one payload front to back. The first fault sticks:
// it empties the buffer, so every later read returns zero values, and
// end reports it.
type wireReader struct {
	buf []byte
	err error
}

func (r *wireReader) fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, why)
	}
	r.buf = nil
}

// take returns the next n bytes, aliasing the payload.
func (r *wireReader) take(n int) []byte {
	if n > len(r.buf) {
		r.fail("truncated")
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// read fills dst (a fixed-width field) from the next len(dst) bytes.
func (r *wireReader) read(dst []byte) { copy(dst, r.take(len(dst))) }

func (r *wireReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *wireReader) i64() int64 { return int64(r.u64()) }

func (r *wireReader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("bool not 0 or 1")
	return false
}

// bytes reads a length-prefixed field into its own copy; the length is
// checked against what remains before the copy is allocated.
func (r *wireReader) bytes() []byte {
	b := r.take(int(r.u32()))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *wireReader) str() string { return string(r.take(int(r.u32()))) }

// count reads an element count and checks that that many elements, each
// at least minSize bytes, fit in what remains — before the caller
// allocates for them.
func (r *wireReader) count(minSize int) int {
	n := r.u32()
	if uint64(n)*uint64(minSize) > uint64(len(r.buf)) {
		r.fail("count exceeds payload")
		return 0
	}
	return int(n)
}

// optU256 reads opt(u256) into dst and returns dst, or nil when absent.
func (r *wireReader) optU256(dst *uint256.Int) *uint256.Int {
	if !r.bool() {
		return nil
	}
	if b := r.take(32); b != nil {
		return dst.SetBytes(b)
	}
	return nil
}

// end reports the payload's first fault, or bytes left unread.
func (r *wireReader) end() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail("trailing bytes")
	}
	return r.err
}
