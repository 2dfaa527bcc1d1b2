package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/session"
)

// serveOnce runs the service side of one connection in the background.
func (r *rig) serveOnce(t testing.TB) (client net.Conn) {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	go func() {
		defer server.Close()
		_ = r.svc.ServeConn(server)
	}()
	return client
}

// dialCold establishes a full attested session (sign=false so a later
// resume is permitted) and returns the client.
func (r *rig) dialCold(t testing.TB) *Client {
	t.Helper()
	c, err := Dial(r.serveOnce(t), r.verifier(), false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// copyTicket deep-copies a client ticket so a test can present the same
// wire bytes twice (the real client API consumes tickets single-use).
func copyTicket(ct *session.ClientTicket) *session.ClientTicket {
	cp := *ct
	cp.Opaque = append([]byte(nil), ct.Opaque...)
	return &cp
}

// TestSigningServiceMintsNoTicket: a resumed channel never signs, so a
// service that signs hands a cold session no ticket — the -ES layer
// then holds for every client, not only for those that never resume.
func TestSigningServiceMintsNoTicket(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigES, 2, 0))
	c, err := Dial(sr.serveOnce(t), sr.verifier(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PreExecute(sr.transferBundle(t, 5)); err != nil {
		t.Fatal(err)
	}
	if c.Ticket() != nil {
		t.Fatal("a signing service minted a resumption ticket")
	}
}

func TestResumeWarmSessionZeroAsymOps(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigE, 2, 0))

	cold := sr.dialCold(t)
	if cold.Warm() {
		t.Fatal("cold dial reported warm")
	}
	bundle := sr.transferBundle(t, 77)
	coldRes, err := cold.PreExecute(bundle)
	if err != nil {
		t.Fatal(err)
	}
	ticket := cold.Ticket()
	if ticket == nil {
		t.Fatal("cold session minted no ticket")
	}
	if cold.Ticket() != nil {
		t.Fatal("Ticket must be single-use (detach)")
	}
	cold.Close()

	// The warm handshake plus a bundle must perform ZERO asymmetric
	// operations on either side — that is the subsystem's entire point.
	before := attest.AsymOps()
	warm, err := Resume(sr.serveOnce(t), ticket)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm() {
		t.Fatal("resumed client not marked warm")
	}
	if warm.SessionID() == cold.SessionID() {
		t.Fatal("resume must mint a fresh session id")
	}
	warmRes, err := warm.PreExecute(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if ops := attest.AsymOps() - before; ops != 0 {
		t.Fatalf("warm resume + bundle performed %d asymmetric ops, want 0", ops)
	}

	// Pre-execution is stateless, so the cold and warm sessions must
	// produce byte-identical traces for the same bundle.
	if !bytes.Equal(appendTrace(nil, &traceMsg{Trace: *coldRes.Trace}), appendTrace(nil, &traceMsg{Trace: *warmRes.Trace})) {
		t.Fatal("cold and warm execution traces differ")
	}

	// The rotated ticket chains: a second resume works too.
	next := warm.Ticket()
	if next == nil {
		t.Fatal("warm session minted no successor ticket")
	}
	warm.Close()
	warm2, err := Resume(sr.serveOnce(t), next)
	if err != nil {
		t.Fatalf("second-generation resume: %v", err)
	}
	if _, err := warm2.PreExecute(sr.transferBundleFrom(t, 3, 9)); err != nil {
		t.Fatal(err)
	}
	warm2.Close()
}

func TestResumeReplayedTicketFailsClosed(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigRaw, 2, 0))
	cold := sr.dialCold(t)
	ticket := cold.Ticket()
	cold.Close()
	replay := copyTicket(ticket)

	warm, err := Resume(sr.serveOnce(t), ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	if _, err := Resume(sr.serveOnce(t), replay); !errors.Is(err, session.ErrTicketReplayed) {
		t.Fatalf("replayed ticket: got %v, want ErrTicketReplayed", err)
	}
}

func TestResumeTamperedTicketFailsClosed(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigRaw, 2, 0))
	cold := sr.dialCold(t)
	ticket := cold.Ticket()
	cold.Close()

	ticket.Opaque[len(ticket.Opaque)/2] ^= 0x01
	if _, err := Resume(sr.serveOnce(t), ticket); !errors.Is(err, session.ErrTicketTampered) {
		t.Fatalf("tampered ticket: got %v, want ErrTicketTampered", err)
	}
}

func TestResumeExpiredTicketFailsClosed(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigRaw, 2, 0))
	clk := session.NewFakeClock(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	if err := sr.svc.SetSessionPolicy(clk, 2, nil); err != nil {
		t.Fatal(err)
	}
	cold := sr.dialCold(t)
	ticket := cold.Ticket()
	cold.Close()

	clk.AdvanceEpochs(3)
	if _, err := Resume(sr.serveOnce(t), ticket); !errors.Is(err, session.ErrTicketExpired) {
		t.Fatalf("expired ticket: got %v, want ErrTicketExpired", err)
	}
}

func TestResumeMeasurementChangeFailsClosed(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigRaw, 2, 0))
	issuer := sr.svc.issuer
	serial := sr.device.Booted().Serial()

	mint := func(serial string, measurement [32]byte) *session.ClientTicket {
		st := &session.State{SessionID: 9999, Serial: serial, Measurement: measurement}
		if _, err := rand.Read(st.PSK[:]); err != nil {
			t.Fatal(err)
		}
		wire, err := issuer.Issue(st)
		if err != nil {
			t.Fatal(err)
		}
		return &session.ClientTicket{
			Opaque: wire, PSK: st.PSK, SessionID: st.SessionID,
			Serial: st.Serial, Measurement: st.Measurement, ExpiryEpoch: st.ExpiryEpoch,
		}
	}

	// Right identity, wrong image measurement: the device re-flashed
	// since the ticket was minted. Must fail closed, typed.
	var wrongImage [32]byte
	wrongImage[0] = 0xEE
	if _, err := Resume(sr.serveOnce(t), mint(serial, wrongImage)); !errors.Is(err, session.ErrMeasurementChanged) {
		t.Fatalf("changed measurement: got %v, want ErrMeasurementChanged", err)
	}

	// Wrong identity under the right measurement fails the same way.
	if _, err := Resume(sr.serveOnce(t), mint("HT-IMPOSTOR", ImageMeasurement())); !errors.Is(err, session.ErrMeasurementChanged) {
		t.Fatalf("wrong serial: got %v, want ErrMeasurementChanged", err)
	}
}

func TestResumeNilAndEmptyTickets(t *testing.T) {
	if _, err := Resume(nil, nil); !errors.Is(err, session.ErrResumeRejected) {
		t.Fatalf("nil ticket: got %v, want ErrResumeRejected", err)
	}
	if _, err := Resume(nil, &session.ClientTicket{}); !errors.Is(err, session.ErrResumeRejected) {
		t.Fatalf("empty ticket: got %v, want ErrResumeRejected", err)
	}
}

// TestResumeBypassesAdmission is the resume stampede: a restarted
// front end's whole user population reconnecting at once while the
// cold-handshake gate is full. Every resume must get through and serve
// a bundle without queuing on the gate and without one asymmetric
// operation.
func TestResumeBypassesAdmission(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigRaw, 2, 0))

	const sessions = 64
	tickets := make([]*session.ClientTicket, sessions)
	for i := range tickets {
		cold := sr.dialCold(t)
		tickets[i] = cold.Ticket()
		cold.Close()
	}

	// Fill the cold-handshake gate completely: any cold dial would now
	// queue. Warm resumes must sail through regardless.
	adm := session.NewAdmission(1)
	adm.Acquire()
	sr.svc.SetAdmission(adm)

	bundle := sr.transferBundle(t, 5) // pre-execution never commits: one bundle serves every session
	before := attest.AsymOps()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for _, ticket := range tickets {
		conn := sr.serveOnce(t)
		wg.Add(1)
		go func(ticket *session.ClientTicket) {
			defer wg.Done()
			warm, err := Resume(conn, ticket)
			if err != nil {
				errs <- err
				return
			}
			defer warm.Close()
			if _, err := warm.PreExecute(bundle); err != nil {
				errs <- err
			}
		}(ticket)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("resume blocked by admission gate: %v", err)
	}
	if ops := attest.AsymOps() - before; ops != 0 {
		t.Fatalf("%d concurrent resumes performed %d asymmetric ops, want 0", sessions, ops)
	}
	if adm.Waits() != 0 {
		t.Fatal("resume queued on the cold-handshake gate")
	}
	adm.Release()
}

func TestResumeConcurrentMuxBundles(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigE, 2, 0))
	cold := sr.dialCold(t)
	ticket := cold.Ticket()
	cold.Close()

	warm, err := Resume(sr.serveOnce(t), ticket)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	// Interleave bundles and status probes on the one multiplexed
	// session from many goroutines (run under -race in CI). Each bundle
	// uses a distinct sender so the canonical nonce stays valid.
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := warm.PreExecute(sr.transferBundleFrom(t, w, uint64(100+w)))
			if err != nil {
				errs <- err
				return
			}
			if len(res.Trace.Txs) != 1 || res.Trace.Txs[0].Reverted {
				errs <- errors.New("bundle trace wrong under concurrency")
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := warm.Status(context.Background()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
