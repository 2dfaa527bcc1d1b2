package core

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
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
	if err := writePlain(client, channel.MsgAttestRequest, 0, nonce[:]); err != nil {
		t.Fatal(err)
	}
	rep, err := readPlain(client, channel.MsgAttestReport, decodeAttestReport)
	if err != nil {
		t.Fatal(err)
	}
	session, userPub, err := verifier.Verify(&rep.Report, nonce)
	if err != nil {
		t.Fatal(err)
	}

	confirm := channel.ConfirmTag(session.Key, rep.SessionID, "user")
	confirm[0] ^= 0x01 // attacker-in-the-middle: tag no longer matches the key
	kx := keyExchangeMsg{SessionID: rep.SessionID, UserPub: userPub, Confirm: confirm}
	if err := writePlain(client, channel.MsgKeyExchange, rep.SessionID, appendKeyExchange(nil, &kx)); err != nil {
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

// TestDialRejectsSwappedDeviceSigningKey: DevSigPub travels outside
// the signed report, so an SP relay can put its own key in its place
// and re-sign every service frame with it. The user's confirm tag
// covers the key the user saw, so the device refuses the key exchange
// and the dial fails before any bundle is sent.
func TestDialRejectsSwappedDeviceSigningKey(t *testing.T) {
	sr := buildServiceRig(t, ConfigES)
	spKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client, userSide := net.Pipe()
	deviceSide, server := net.Pipe()
	defer client.Close()
	errCh := make(chan error, 1)
	go func() {
		defer server.Close()
		errCh <- sr.svc.ServeConn(server)
	}()
	// User → device: forwarded untouched.
	go func() {
		defer deviceSide.Close()
		for {
			msg, err := channel.ReadMessage(userSide)
			if err != nil || channel.WriteMessage(deviceSide, msg) != nil {
				return
			}
		}
	}()
	// Device → user: swap DevSigPub in the report, then strip each
	// sealed frame's signature and sign its ciphertext with spKey.
	go func() {
		defer userSide.Close()
		for first := true; ; first = false {
			msg, err := channel.ReadMessage(deviceSide)
			if err != nil {
				return
			}
			if first {
				rep, err := decodePlain(msg, channel.MsgAttestReport, decodeAttestReport)
				if err != nil {
					return
				}
				rep.DevSigPub = elliptic.Marshal(elliptic.P256(), spKey.X, spKey.Y)
				if writePlain(userSide, channel.MsgAttestReport, rep.SessionID, appendAttestReport(nil, &rep)) != nil {
					return
				}
				continue
			}
			h, err := channel.ParseHeader(msg[:channel.HeaderSize])
			if err != nil {
				return
			}
			ct := msg[channel.HeaderSize : channel.HeaderSize+int(h.Length)]
			digest := sha256.Sum256(ct)
			sig, err := ecdsa.SignASN1(rand.Reader, spKey, digest[:])
			if err != nil {
				return
			}
			out := append(append([]byte(nil), msg[:channel.HeaderSize]...), ct...)
			binary.BigEndian.PutUint32(out[28:32], uint32(len(sig)))
			if channel.WriteMessage(userSide, append(out, sig...)) != nil {
				return
			}
		}
	}()

	c, err := Dial(client, sr.verifier(), true)
	if err == nil {
		_, err = c.PreExecute(sr.transferBundle(t, 77))
		c.Close()
		t.Fatalf("dial through a relay that swapped DevSigPub succeeded (PreExecute: %v)", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, channel.ErrBadConfirmTag) {
			t.Fatalf("service: want ErrBadConfirmTag, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("service did not reject the key exchange")
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
