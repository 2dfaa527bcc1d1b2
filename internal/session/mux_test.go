package session

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"hardtape/internal/channel"
)

// muxPair builds a client Mux talking to a minimal echo server over
// net.Pipe. The server reverses MuxBundle bodies (so replies are
// distinguishable from echoes) and fails MuxStatus frames whose body
// says "boom". A "hold" request is answered only once the next request
// arrives, and ahead of it; a "forge" request is answered under an id
// the client never issued.
func muxPair(t *testing.T) (*Mux, func()) {
	t.Helper()
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		t.Fatal(err)
	}
	const sid = 77
	cch, err := channel.NewSecureChannel(key, sid)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := channel.NewSecureChannel(key, sid)
	if err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()

	var wmu sync.Mutex
	writeReply := func(frame []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		sealed, err := sch.Seal(channel.MsgMuxReply, frame)
		if err != nil {
			return err
		}
		return channel.WriteMessage(sconn, sealed)
	}
	go func() {
		var held []uint64
		for {
			raw, err := channel.ReadMessage(sconn)
			if err != nil {
				return
			}
			hdr, frame, err := sch.Open(raw)
			if err != nil || hdr.Type != channel.MsgMux {
				return
			}
			id, kind, _, body, err := ParseMuxFrame(frame)
			if err != nil {
				return
			}
			switch string(body) {
			case "hold":
				held = append(held, id)
				continue
			case "forge":
				id += 1000
			}
			for _, h := range held {
				_ = writeReply(EncodeMuxFrame(h, MuxOK, channel.TraceContext{}, []byte("late")))
			}
			held = nil
			// Serve each request on its own goroutine so replies can
			// overtake each other — that's what the id matching is for.
			go func(id uint64, kind byte, body []byte) {
				if kind == MuxStatus && string(body) == "boom" {
					_ = writeReply(EncodeMuxFrame(id, MuxErr, channel.TraceContext{}, []byte("boom served")))
					return
				}
				rev := make([]byte, len(body))
				for i, b := range body {
					rev[len(body)-1-i] = b
				}
				_ = writeReply(EncodeMuxFrame(id, MuxOK, channel.TraceContext{}, rev))
			}(id, kind, append([]byte(nil), body...))
		}
	}()

	m := NewMux(cconn, cch)
	return m, func() { m.Close(); sconn.Close() }
}

func TestMuxConcurrentRoundTrips(t *testing.T) {
	m, done := muxPair(t)
	defer done()

	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				msg := "w" + strconv.Itoa(w) + "-req-" + strconv.Itoa(i)
				got, err := m.RoundTrip(context.Background(), MuxBundle, channel.TraceContext{}, []byte(msg))
				if err != nil {
					errs <- err
					return
				}
				want := make([]byte, len(msg))
				for j := 0; j < len(msg); j++ {
					want[len(msg)-1-j] = msg[j]
				}
				if string(got) != string(want) {
					errs <- fmt.Errorf("reply %q for request %q", got, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMuxRemoteErrorIsPerRequest(t *testing.T) {
	m, done := muxPair(t)
	defer done()
	if _, err := m.RoundTrip(context.Background(), MuxStatus, channel.TraceContext{}, []byte("boom")); err == nil {
		t.Fatal("remote error must surface to the caller")
	}
	// One failed request must not poison the session.
	if _, err := m.RoundTrip(context.Background(), MuxBundle, channel.TraceContext{}, []byte("ok")); err != nil {
		t.Fatalf("round trip after remote error: %v", err)
	}
	if m.Broken() != nil {
		t.Fatal("remote application error must not break the mux")
	}
}

func TestMuxCloseFailsInFlight(t *testing.T) {
	m, done := muxPair(t)
	defer done()
	m.Close()
	if _, err := m.RoundTrip(context.Background(), MuxBundle, channel.TraceContext{}, []byte("late")); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("round trip after close: got %v, want ErrMuxClosed", err)
	}
}

// TestMuxCancelledRoundTripForgetsItsID: a round trip whose ctx ends
// first returns ctx.Err(); the reply that arrives later for its issued
// id is dropped and the session carries on, while a reply under an id
// never issued still breaks the mux.
func TestMuxCancelledRoundTripForgetsItsID(t *testing.T) {
	m, done := muxPair(t)
	defer done()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := m.RoundTrip(ctx, MuxBundle, channel.TraceContext{}, []byte("hold")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round trip: got %v, want context.Canceled", err)
	}
	// The server answers the held request first, then this one.
	got, err := m.RoundTrip(context.Background(), MuxBundle, channel.TraceContext{}, []byte("ok"))
	if err != nil || string(got) != "ko" {
		t.Fatalf("round trip after a late reply: %q, %v", got, err)
	}
	if m.Broken() != nil {
		t.Fatalf("late reply to an abandoned id broke the mux: %v", m.Broken())
	}

	if _, err := m.RoundTrip(context.Background(), MuxBundle, channel.TraceContext{}, []byte("forge")); err == nil {
		t.Fatal("round trip answered under a forged id succeeded")
	}
	if m.Broken() == nil {
		t.Fatal("reply to an id never issued must break the mux")
	}
}

func TestParseMuxFrameRejectsShort(t *testing.T) {
	if _, _, _, _, err := ParseMuxFrame([]byte{1, 2, 3}); !errors.Is(err, ErrBadMuxFrame) {
		t.Fatal("short frame must be rejected")
	}
	// A traced flag without the 24 context bytes behind it is short too.
	if _, _, _, _, err := ParseMuxFrame([]byte{0, 0, 0, 0, 0, 0, 0, 9, MuxBundle | MuxFlagTraced, 'x'}); !errors.Is(err, ErrBadMuxFrame) {
		t.Fatal("traced frame without its context must be rejected")
	}
}

// TestMuxFrameTraceContext pins the one frame codec both ways: a zero
// trace context produces exactly the pre-tracing bytes (so tracing is
// never a protocol version bump), and a non-zero one round-trips behind
// MuxFlagTraced with the kind restored.
func TestMuxFrameTraceContext(t *testing.T) {
	plain := EncodeMuxFrame(9, MuxBundle, channel.TraceContext{}, []byte("xyz"))
	want := []byte{0, 0, 0, 0, 0, 0, 0, 9, MuxBundle, 'x', 'y', 'z'}
	if !bytes.Equal(plain, want) {
		t.Fatalf("untraced frame % x, want the pre-tracing encoding % x", plain, want)
	}
	id, kind, tc, body, err := ParseMuxFrame(plain)
	if err != nil || id != 9 || kind != MuxBundle || tc.Valid() || string(body) != "xyz" {
		t.Fatalf("untraced round trip: id=%d kind=%d tc=%v body=%q err=%v", id, kind, tc, body, err)
	}

	in := channel.TraceContext{Trace: [16]byte{1, 2, 3}, Span: [8]byte{4, 5}}
	traced := EncodeMuxFrame(9, MuxBundle, in, []byte("xyz"))
	if len(traced) != len(plain)+channel.TraceContextSize || traced[8] != MuxBundle|MuxFlagTraced {
		t.Fatalf("traced frame: %d bytes, kind byte %#x", len(traced), traced[8])
	}
	id, kind, tc, body, err = ParseMuxFrame(traced)
	if err != nil || id != 9 || kind != MuxBundle || tc != in || string(body) != "xyz" {
		t.Fatalf("traced round trip: id=%d kind=%d tc=%v body=%q err=%v", id, kind, tc, body, err)
	}
}

func TestAdmissionGatesColdHandshakes(t *testing.T) {
	adm := NewAdmission(2)
	if adm.Limit() != 2 {
		t.Fatalf("limit %d, want 2", adm.Limit())
	}
	if w := adm.Acquire(); w {
		t.Fatal("first acquire must not wait")
	}
	if w := adm.Acquire(); w {
		t.Fatal("second acquire must not wait")
	}
	released := make(chan struct{})
	go func() {
		// Third acquire blocks until a release.
		if w := adm.Acquire(); !w {
			t.Error("third acquire should have waited")
		}
		close(released)
	}()
	// The waiter bumps Waits before parking; release only once it has.
	for adm.Waits() == 0 {
		runtime.Gosched()
	}
	adm.Release()
	<-released
	if adm.Waits() != 1 {
		t.Fatalf("waits %d, want 1", adm.Waits())
	}
	adm.Release()
	adm.Release()
	if adm.InFlight() != 0 {
		t.Fatalf("in-flight %d, want 0", adm.InFlight())
	}
}

func TestAdmissionNilIsUnlimited(t *testing.T) {
	var adm *Admission
	if adm != NewAdmission(0) {
		t.Fatal("limit 0 must produce the nil (unlimited) admission")
	}
	for i := 0; i < 100; i++ {
		if adm.Acquire() {
			t.Fatal("nil admission must never wait")
		}
	}
	adm.Release()
	if adm.InFlight() != 0 || adm.Waits() != 0 || adm.Limit() != 0 {
		t.Fatal("nil admission counters must read zero")
	}
}
