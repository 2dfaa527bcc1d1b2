package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/channel"
	"hardtape/internal/node"
	"hardtape/internal/session"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
	"hardtape/internal/workload"
)

// serviceRig wires a device behind a Service with a shared
// manufacturer so the client can pin the root of trust.
type serviceRig struct {
	*rig
	mfr *attest.Manufacturer
	svc *Service
}

func buildServiceRig(t testing.TB, features Features) *serviceRig {
	t.Helper()
	mfr, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 8
	wcfg.Tokens = 2
	wcfg.DEXes = 1
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Features = features
	cfg.HEVMs = 2
	dev, err := NewDevice(cfg, mfr, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	return &serviceRig{
		rig: &rig{world: w, chain: chain, device: dev},
		mfr: mfr,
		svc: NewService(dev),
	}
}

func (sr *serviceRig) verifier() *attest.Verifier {
	return attest.NewVerifier(sr.mfr.PublicKey(), ImageMeasurement())
}

func TestServiceEndToEndOverPipe(t *testing.T) {
	sr := buildServiceRig(t, ConfigFull)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		_ = sr.svc.ServeConn(server)
	}()

	c, err := Dial(client, sr.verifier(), true)
	if err != nil {
		t.Fatal(err)
	}
	bundle := sr.transferBundle(t, 77)
	res, err := c.PreExecute(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortReason != "" {
		t.Fatalf("aborted: %s", res.AbortReason)
	}
	if len(res.Trace.Txs) != 1 || res.Trace.Txs[0].Reverted {
		t.Fatalf("trace: %+v", res.Trace)
	}
	if got := new(uint256.Int).SetBytes(res.Trace.Txs[0].ReturnData); !got.Eq(uint256.NewInt(1)) {
		t.Fatalf("return = %s", got)
	}
	if res.VirtualTime <= 0 {
		t.Fatal("no virtual time reported")
	}

	// A second bundle reuses the session.
	res2, err := c.PreExecute(sr.transferBundleFrom(t, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Trace.Txs) != 1 {
		t.Fatal("second bundle failed")
	}
}

func TestServiceOverTCP(t *testing.T) {
	sr := buildServiceRig(t, ConfigES)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = sr.svc.ServeListener(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := Dial(conn, sr.verifier(), true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.PreExecute(sr.transferBundle(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Txs) != 1 {
		t.Fatal("TCP round trip failed")
	}
}

func TestServiceRejectsWrongManufacturer(t *testing.T) {
	sr := buildServiceRig(t, ConfigRaw)
	evil, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		_ = sr.svc.ServeConn(server)
	}()
	wrongVerifier := attest.NewVerifier(evil.PublicKey(), ImageMeasurement())
	if _, err := Dial(client, wrongVerifier, false); err == nil {
		t.Fatal("client accepted a device from an unknown manufacturer")
	} else if !strings.Contains(err.Error(), "attestation failed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestServiceReportsAborts(t *testing.T) {
	sr := buildServiceRig(t, ConfigRaw)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		_ = sr.svc.ServeConn(server)
	}()
	c, err := Dial(client, sr.verifier(), false)
	if err != nil {
		t.Fatal(err)
	}
	hog := sr.world.MemoryHog
	tx, err := sr.world.SignedTxAt(sr.world.EOAs[0], 0, &hog, 0,
		workload.CalldataUint(600_000), 25_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.PreExecute(&types.Bundle{Txs: []*types.Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.AbortReason, "memory overflow") {
		t.Fatalf("abort reason: %q", res.AbortReason)
	}
}

func TestServiceRejectsProtocolViolations(t *testing.T) {
	sr := buildServiceRig(t, ConfigRaw)

	t.Run("garbage first message", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		errCh := make(chan error, 1)
		go func() {
			defer server.Close()
			errCh <- sr.svc.ServeConn(server)
		}()
		// A framed message with a bogus header.
		if err := channel.WriteMessage(client, []byte("not a protocol message at all....")); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err == nil {
			t.Fatal("service accepted garbage")
		}
	})

	t.Run("wrong message type first", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		errCh := make(chan error, 1)
		go func() {
			defer server.Close()
			errCh <- sr.svc.ServeConn(server)
		}()
		h := channel.Header{Type: channel.MsgAttestReport, Length: 0}
		raw := h.Marshal()
		if err := channel.WriteMessage(client, raw[:]); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; !errors.Is(err, ErrProtocol) {
			t.Fatalf("wrong-type open: %v", err)
		}
	})

	// The client is mux-only: a correctly sealed bundle under any type
	// but MsgMux is a protocol violation after the handshake.
	t.Run("sealed bundle outside the mux", func(t *testing.T) {
		var key [32]byte
		key[0] = 7
		userEnd, err := channel.NewSecureChannel(key, 9)
		if err != nil {
			t.Fatal(err)
		}
		deviceEnd, err := channel.NewSecureChannel(key, 9)
		if err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		defer client.Close()
		errCh := make(chan error, 1)
		go func() {
			defer server.Close()
			errCh <- sr.svc.serveSession(server, deviceEnd)
		}()
		sealed, err := userEnd.Seal(channel.MsgTicketIssue, appendBundle(nil, sr.transferBundle(t, 3)))
		if err != nil {
			t.Fatal(err)
		}
		if err := channel.WriteMessage(client, sealed); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; !errors.Is(err, ErrProtocol) {
			t.Fatalf("sealed non-mux bundle: %v", err)
		}
	})
}

// TestColdAdmissionCoversHandshakeOnly: the cold-handshake gate bounds
// concurrent handshakes, not session lifetimes — with limit 1, cold
// session A staying open must not keep cold session B's Dial out.
func TestColdAdmissionCoversHandshakeOnly(t *testing.T) {
	sr := buildServiceRig(t, ConfigRaw)
	adm := session.NewAdmission(1)
	sr.svc.SetAdmission(adm)

	a := sr.dialCold(t)
	defer a.Close()
	dialed := make(chan error, 1)
	conn, bundle := sr.serveOnce(t), sr.transferBundle(t, 4)
	go func() {
		b, err := Dial(conn, sr.verifier(), false)
		if err == nil {
			defer b.Close()
			_, err = b.PreExecute(bundle)
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second cold dial blocked behind an open cold session")
	}
	if _, err := a.PreExecute(sr.transferBundle(t, 5)); err != nil {
		t.Fatalf("session A broke: %v", err)
	}
	if adm.InFlight() != 0 {
		t.Fatalf("admission slots still held after both handshakes: %d", adm.InFlight())
	}
}

// TestSilentPeerReleasesColdAdmission: a TCP peer that opens a cold
// handshake and goes silent holds the cold-admission slot only until
// handshakeTimeout; an honest cold Dial queued behind it then gets in.
func TestSilentPeerReleasesColdAdmission(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 500 * time.Millisecond
	sr := buildServiceRig(t, ConfigRaw)
	sr.svc.SetAdmission(session.NewAdmission(1))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Every server goroutine is done before handshakeTimeout is restored.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer l.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				_ = sr.svc.ServeConn(c)
			}()
		}
	}()

	silent, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := writePlain(silent, channel.MsgAttestRequest, 0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	// The report back means the silent peer holds the admission slot.
	if _, err := readPlain(silent, channel.MsgAttestReport, decodeAttestReport); err != nil {
		t.Fatal(err)
	}
	// Dial halfway through the silent peer's budget: the honest
	// handshake's own deadline then has half of its budget left when the
	// slot frees.
	time.Sleep(handshakeTimeout / 2)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dialed := make(chan error, 1)
	go func() {
		c, err := Dial(conn, sr.verifier(), false)
		if err == nil {
			c.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(handshakeTimeout + time.Second):
		t.Fatal("honest cold dial still queued behind a silent peer")
	}
}

func TestClientSessionEndsCleanly(t *testing.T) {
	sr := buildServiceRig(t, ConfigRaw)
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		defer server.Close()
		errCh <- sr.svc.ServeConn(server)
	}()
	c, err := Dial(client, sr.verifier(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PreExecute(sr.transferBundle(t, 3)); err != nil {
		t.Fatal(err)
	}
	// Closing the connection ends the session loop without error.
	client.Close()
	if err := <-errCh; err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("session did not end cleanly: %v", err)
	}
}

func TestSecondClientGetsFreshSession(t *testing.T) {
	sr := buildServiceRig(t, ConfigES)
	runOne := func(amount uint64) uint64 {
		client, server := net.Pipe()
		defer client.Close()
		go func() {
			defer server.Close()
			_ = sr.svc.ServeConn(server)
		}()
		c, err := Dial(client, sr.verifier(), true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.PreExecute(sr.transferBundle(t, amount)); err != nil {
			t.Fatal(err)
		}
		return c.session
	}
	s1 := runOne(1)
	s2 := runOne(2)
	if s1 == s2 {
		t.Fatal("sessions must be unique per connection")
	}
}

// TestServiceAnswersOversizedTraceAsFailed: a trace reply too large for
// one sealed frame comes back as a Failed reply that names the limit,
// before the caller's deadline, and the session serves the next bundle.
// Each transaction is a contract creation whose init code SLOADs in a
// loop until its 29 M gas runs out, recording about 250 000 storage
// reads; two of them are more trace than channel.MaxPayload holds.
func TestServiceAnswersOversizedTraceAsFailed(t *testing.T) {
	sr := buildServiceRig(t, ConfigRaw)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		_ = sr.svc.ServeConn(server)
	}()
	c, err := Dial(client, sr.verifier(), false)
	if err != nil {
		t.Fatal(err)
	}
	loop := []byte{0x5b, 0x60, 0x00, 0x54, 0x50, 0x60, 0x00, 0x56} // JUMPDEST PUSH1 0 SLOAD POP PUSH1 0 JUMP
	bundle := &types.Bundle{}
	for i := 0; i < 2; i++ {
		tx, err := sr.world.SignedTxAt(sr.world.EOAs[i], 0, nil, 0, loop, 29_000_000)
		if err != nil {
			t.Fatal(err)
		}
		bundle.Txs = append(bundle.Txs, tx)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.PreExecuteContext(ctx, bundle)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !strings.Contains(res.AbortReason, fmt.Sprint(channel.MaxPayload)) {
		t.Fatalf("oversized trace: failed=%v reason %q, want a Failed reply naming the %d-byte limit", res.Failed, res.AbortReason, channel.MaxPayload)
	}
	res, err = c.PreExecuteContext(ctx, sr.transferBundle(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || len(res.Trace.Txs) != 1 {
		t.Fatalf("next bundle: %+v", res)
	}
}
