package session

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"hardtape/internal/channel"
)

// Multiplexing lets one secure channel carry many interleaved
// request/response exchanges, matched by an 8-byte request id — the
// ORAM wire's frame shape (oram/tcp.go), here with many requests in
// flight and lifted inside the AEAD boundary. Frames ride as the *plaintext* of sealed
// MsgMux / MsgMuxReply messages, so the request ids and kinds are
// confidential and authenticated like everything else:
//
//	request:  [reqID u64][kind u8][body]
//	response: [reqID u64][status u8][body]     (statusErr body = message)
//
// A SecureChannel is deliberately not concurrency-safe (its sequence
// numbers are the replay defense), so the mux serializes seal+write
// under one lock and performs every Open on the single reader
// goroutine — the channel's invariants hold by construction.

// Mux frame kinds.
const (
	// MuxBundle carries an encoded bundle; the reply is a trace (the
	// layouts are core's wire codec, core/wire.go).
	MuxBundle byte = 1
	// MuxStatus probes device occupancy; the reply is a status report.
	MuxStatus byte = 2

	// MuxFlagTraced marks a request frame that carries a 24-byte
	// distributed-trace context (channel.TraceContext) between the
	// kind byte and the body. Untraced frames stay byte-identical to
	// the pre-tracing wire format, so tracing is never a protocol
	// version bump.
	MuxFlagTraced byte = 0x80
)

// Mux frame reply statuses.
const (
	MuxOK  byte = 0
	MuxErr byte = 1
)

// muxHeaderLen is the frame prefix: request id + kind/status byte.
const muxHeaderLen = 9

// EncodeMuxFrame builds a frame to seal into a MsgMux or MsgMuxReply.
// A valid tc makes it a traced request frame: the kind byte gains
// MuxFlagTraced and the 24-byte context precedes the body. The zero tc
// (every reply, every untraced request) is the plain encoding.
func EncodeMuxFrame(reqID uint64, kind byte, tc channel.TraceContext, body []byte) []byte {
	frame := make([]byte, muxHeaderLen, muxHeaderLen+channel.TraceContextSize+len(body))
	binary.BigEndian.PutUint64(frame[:8], reqID)
	frame[8] = kind
	if tc.Valid() {
		frame[8] |= MuxFlagTraced
		frame = channel.AppendTraceContext(frame, tc)
	}
	return append(frame, body...)
}

// ParseMuxFrame splits a decrypted frame into id, kind/status, trace
// context (zero when the frame is untraced), and body. The returned
// kind has MuxFlagTraced cleared.
func ParseMuxFrame(frame []byte) (reqID uint64, kind byte, tc channel.TraceContext, body []byte, err error) {
	if len(frame) < muxHeaderLen {
		return 0, 0, channel.TraceContext{}, nil, fmt.Errorf("%w: %d bytes", ErrBadMuxFrame, len(frame))
	}
	reqID = binary.BigEndian.Uint64(frame[:8])
	kind = frame[8]
	body = frame[muxHeaderLen:]
	if kind&MuxFlagTraced != 0 {
		kind &^= MuxFlagTraced
		tc, body, err = channel.ParseTraceContext(body)
		if err != nil {
			return 0, 0, channel.TraceContext{}, nil, fmt.Errorf("%w: %w", ErrBadMuxFrame, err)
		}
	}
	return reqID, kind, tc, body, nil
}

// muxResult is one decoded reply (or the transport failure that killed
// the session).
type muxResult struct {
	body []byte
	err  error
}

// Mux is the client end of a multiplexed session: many goroutines may
// call RoundTrip concurrently on one connection; replies are matched
// by request id by a single reader goroutine.
type Mux struct {
	conn io.ReadWriteCloser

	cmu sync.Mutex // seal order == write order; the channel's seq demands it
	ch  *channel.SecureChannel

	pmu     sync.Mutex
	pending map[uint64]chan muxResult
	nextID  uint64
	broken  error // sticky; set once, fails every later call
}

// NewMux starts multiplexing over an established secure channel. The
// mux owns all reads from conn from this point on.
func NewMux(conn io.ReadWriteCloser, ch *channel.SecureChannel) *Mux {
	m := &Mux{conn: conn, ch: ch, pending: make(map[uint64]chan muxResult)}
	go m.readLoop()
	return m
}

// Close tears the session down; in-flight round trips fail with
// ErrMuxClosed.
func (m *Mux) Close() error {
	m.fail(ErrMuxClosed)
	return m.conn.Close()
}

// RoundTrip sends one request frame and blocks for its reply body,
// propagating the caller's trace context tc (zero: the untraced frame
// encoding). It is safe for concurrent use; the send lock covers only
// seal+write, never the link round trip, so requests pipeline. If ctx
// ends first RoundTrip returns ctx.Err() and forgets the id: the late
// reply is dropped on arrival and the session carries on.
func (m *Mux) RoundTrip(ctx context.Context, kind byte, tc channel.TraceContext, body []byte) ([]byte, error) {
	ch := make(chan muxResult, 1)
	m.pmu.Lock()
	if m.broken != nil {
		err := m.broken
		m.pmu.Unlock()
		return nil, err
	}
	m.nextID++
	id := m.nextID
	m.pending[id] = ch
	m.pmu.Unlock()

	frame := EncodeMuxFrame(id, kind, tc, body)
	m.cmu.Lock()
	sealed, err := m.ch.Seal(channel.MsgMux, frame)
	if err == nil {
		err = channel.WriteMessage(m.conn, sealed)
	}
	m.cmu.Unlock()
	if err != nil {
		if pending, _ := m.take(id); pending != nil {
			return nil, fmt.Errorf("session: mux send: %w", err)
		}
		// The read loop already failed this call; fall through to recv.
	}

	var res muxResult
	select {
	case res = <-ch:
	case <-ctx.Done():
		if pending, _ := m.take(id); pending != nil {
			return nil, ctx.Err()
		}
		// The reply (or the session's failure) won the race and is
		// already buffered.
		res = <-ch
	}
	if res.err != nil {
		return nil, res.err
	}
	return res.body, nil
}

// readLoop opens every inbound message on one goroutine (the
// SecureChannel recv sequence is single-threaded by construction) and
// routes replies to their waiting callers.
func (m *Mux) readLoop() {
	for {
		raw, err := channel.ReadMessage(m.conn)
		if err != nil {
			m.fail(fmt.Errorf("%w: %v", ErrMuxClosed, err))
			return
		}
		hdr, frame, err := m.ch.Open(raw)
		if err != nil {
			m.fail(fmt.Errorf("session: mux open: %w", err))
			return
		}
		if hdr.Type != channel.MsgMuxReply {
			m.fail(fmt.Errorf("session: unexpected message type %d on mux", hdr.Type))
			return
		}
		id, status, _, body, err := ParseMuxFrame(frame)
		if err != nil {
			m.fail(err)
			return
		}
		ch, issued := m.take(id)
		if ch == nil {
			if issued {
				// Abandoned by a RoundTrip whose ctx ended first.
				continue
			}
			m.fail(fmt.Errorf("session: unsolicited mux reply id %d", id))
			return
		}
		if status != MuxOK {
			ch <- muxResult{err: fmt.Errorf("session: remote: %s", body)}
			continue
		}
		ch <- muxResult{body: body}
	}
}

// take removes and returns the pending reply channel for id, if any,
// and reports whether id was ever issued.
func (m *Mux) take(id uint64) (chan muxResult, bool) {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	ch := m.pending[id]
	delete(m.pending, id)
	return ch, id != 0 && id <= m.nextID
}

// fail poisons the mux and unblocks every in-flight caller.
func (m *Mux) fail(err error) {
	m.pmu.Lock()
	if m.broken == nil {
		m.broken = err
	}
	calls := m.pending
	m.pending = make(map[uint64]chan muxResult)
	m.pmu.Unlock()
	for _, ch := range calls {
		ch <- muxResult{err: err}
	}
}

// Broken reports the sticky failure, if any (tests, health checks).
func (m *Mux) Broken() error {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	return m.broken
}
