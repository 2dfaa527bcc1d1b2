package core

import (
	"errors"
	"net"
	"testing"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/channel"
)

// TestServeConnRejectsBadConfirmTag replays the handshake with a
// client that completes DHKE correctly but sends a corrupted
// key-confirmation tag: the service must refuse to open the bundle
// loop with ErrBadConfirmTag, not fail later with a generic AEAD
// error.
func TestServeConnRejectsBadConfirmTag(t *testing.T) {
	sr := buildServiceRig(t, ConfigFull)
	client, server := net.Pipe()
	defer client.Close()
	errCh := make(chan error, 1)
	go func() {
		defer server.Close()
		errCh <- sr.svc.ServeConn(server)
	}()

	verifier := sr.verifier()
	nonce, err := verifier.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	if err := writePlain(client, channel.MsgAttestRequest, 0, &attestRequestMsg{Nonce: nonce}); err != nil {
		t.Fatal(err)
	}
	rep, err := readPlain[attestReportMsg](client, channel.MsgAttestReport)
	if err != nil {
		t.Fatal(err)
	}
	session, userPub, err := verifier.Verify(&rep.Report, nonce)
	if err != nil {
		t.Fatal(err)
	}

	confirm := channel.ConfirmTag(session.Key, rep.SessionID, "user")
	confirm[0] ^= 0x01 // attacker-in-the-middle: tag no longer matches the key
	kx := keyExchangeMsg{SessionID: rep.SessionID, UserPub: userPub, Confirm: confirm[:]}
	if err := writePlain(client, channel.MsgKeyExchange, rep.SessionID, &kx); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-errCh:
		if !errors.Is(err, channel.ErrBadConfirmTag) {
			t.Fatalf("want ErrBadConfirmTag, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("service did not reject the tampered confirmation tag")
	}
}

// capturingVerifier records the attest.Session Dial derives its keys
// from, so a test can look at the DHKE key after Dial returned.
type capturingVerifier struct {
	ReportVerifier
	sess *attest.Session
}

func (v *capturingVerifier) Verify(report *attest.Report, nonce [32]byte) (*attest.Session, []byte, error) {
	sess, pub, err := v.ReportVerifier.Verify(report, nonce)
	v.sess = sess
	return sess, pub, err
}

// failingWriter fails every Write after the first `left` calls (a
// framed message is two writes: length, then body).
type failingWriter struct {
	net.Conn
	left int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left == 0 {
		return 0, errors.New("injected write failure")
	}
	w.left--
	return w.Conn.Write(p)
}

// TestDialZeroesSessionKeyOnEveryPath: the DHKE session key must not
// outlive the handshake whichever way it ends. Before the deferred
// ZeroKey it was wiped on the success path only, so a failed
// key-exchange write (or a bad device signing key) left it in memory.
func TestDialZeroesSessionKeyOnEveryPath(t *testing.T) {
	sr := buildServiceRig(t, ConfigFull)
	for _, tc := range []struct {
		name   string
		writes int // client writes allowed before the fault; <0 = none injected
	}{
		{"key exchange write fails", 2},
		{"handshake completes", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := &capturingVerifier{ReportVerifier: sr.verifier()}
			conn := &failingWriter{Conn: sr.serveOnce(t), left: tc.writes}
			c, err := Dial(conn, v, true)
			if (err != nil) != (tc.writes >= 0) {
				t.Fatalf("Dial: %v", err)
			}
			if c != nil {
				defer c.Close()
			}
			if v.sess == nil {
				t.Fatal("handshake never reached key derivation")
			}
			if v.sess.Key != ([32]byte{}) {
				t.Fatal("DHKE session key still in memory after Dial returned")
			}
		})
	}
}
