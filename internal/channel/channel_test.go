package channel

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"net"
	"testing"
	"testing/quick"
)

func sessionKey() [32]byte {
	var k [32]byte
	for i := range k {
		k[i] = byte(i)
	}
	return k
}

// pair builds two channels sharing a session key (user side + device
// side).
func pair(t testing.TB) (*SecureChannel, *SecureChannel) {
	t.Helper()
	a, err := NewSecureChannel(sessionKey(), 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecureChannel(sessionKey(), 77)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Type: MsgMux, Flags: FlagEncrypted, Session: 9, Seq: 42, Length: 100}
	raw := h.Marshal()
	back, err := ParseHeader(raw[:])
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != MsgMux || back.Session != 9 || back.Seq != 42 || back.Length != 100 {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestHeaderValidation(t *testing.T) {
	good := (&Header{Type: MsgTicketIssue, Length: 1}).Marshal()

	short := make([]byte, 16)
	if _, err := ParseHeader(short); !errors.Is(err, ErrBadHeader) {
		t.Errorf("short: %v", err)
	}
	badMagic := good
	badMagic[0] = 0x00
	if _, err := ParseHeader(badMagic[:]); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	badVersion := good
	badVersion[2] = 9
	if _, err := ParseHeader(badVersion[:]); !errors.Is(err, ErrBadHeader) {
		t.Errorf("version: %v", err)
	}
	badType := good
	badType[3] = 0xff
	if _, err := ParseHeader(badType[:]); !errors.Is(err, ErrBadHeader) {
		t.Errorf("type: %v", err)
	}
	tooBig := (&Header{Type: MsgTicketIssue, Length: MaxPayload + 1}).Marshal()
	if _, err := ParseHeader(tooBig[:]); !errors.Is(err, ErrTooLarge) {
		t.Errorf("too large: %v", err)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	a, b := pair(t)
	payload := []byte("pre-execution bundle payload")
	msg, err := a.Seal(MsgMux, payload)
	if err != nil {
		t.Fatal(err)
	}
	h, pt, err := b.Open(msg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgMux || !bytes.Equal(pt, payload) {
		t.Fatalf("open: %+v %q", h, pt)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	a, b := pair(t)
	msg, err := a.Seal(MsgMux, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	msg[len(msg)-1] ^= 0x01
	if _, _, err := b.Open(msg); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("tampered: %v", err)
	}
}

func TestOpenRejectsReplay(t *testing.T) {
	a, b := pair(t)
	msg, err := a.Seal(MsgMux, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Open(msg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Open(msg); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
}

func TestOpenRejectsWrongSession(t *testing.T) {
	a, err := NewSecureChannel(sessionKey(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecureChannel(sessionKey(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := a.Seal(MsgMux, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Open(msg); err == nil {
		t.Fatal("cross-session message accepted")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	a, _ := pair(t)
	other := sessionKey()
	other[0] ^= 0xff
	b, err := NewSecureChannel(other, 77)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := a.Seal(MsgMux, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Open(msg); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("wrong key: %v", err)
	}
}

func TestSignedMessages(t *testing.T) {
	aKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair(t)
	a.EnableSigning(aKey, &bKey.PublicKey)
	b.EnableSigning(bKey, &aKey.PublicKey)

	msg, err := a.Seal(MsgTicketIssue, []byte("signed trace"))
	if err != nil {
		t.Fatal(err)
	}
	_, pt, err := b.Open(msg)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "signed trace" {
		t.Fatalf("payload: %q", pt)
	}

	// Signature by the wrong key is rejected.
	evilKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	evil, err := NewSecureChannel(sessionKey(), 77)
	if err != nil {
		t.Fatal(err)
	}
	evil.EnableSigning(evilKey, &bKey.PublicKey)
	msg2, err := evil.Seal(MsgTicketIssue, []byte("forged"))
	if err != nil {
		t.Fatal(err)
	}
	// Receiver b expects signatures from aKey.
	b2, err := NewSecureChannel(sessionKey(), 77)
	if err != nil {
		t.Fatal(err)
	}
	b2.EnableSigning(bKey, &aKey.PublicKey)
	if _, _, err := b2.Open(msg2); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged signature: %v", err)
	}
}

// TestOpenRejectsStrippedSignature: the SP clears FlagSigned, drops
// the signature bytes and zeroes the signature length. The AEAD still
// opens (the flags are not associated data), so a signing channel must
// refuse the unsigned frame itself.
func TestOpenRejectsStrippedSignature(t *testing.T) {
	aKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair(t)
	a.EnableSigning(aKey, &bKey.PublicKey)
	b.EnableSigning(bKey, &aKey.PublicKey)
	msg, err := a.Seal(MsgMuxReply, []byte("signed trace"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(msg[:HeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	stripped := append([]byte(nil), msg[:HeaderSize+int(h.Length)]...)
	stripped[4] &^= FlagSigned
	clear(stripped[28:32])
	if _, _, err := b.Open(stripped); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("stripped signature: %v, want ErrBadSignature", err)
	}
	if _, pt, err := b.Open(msg); err != nil || string(pt) != "signed trace" {
		t.Fatalf("intact frame after the refusal: %q, %v", pt, err)
	}
}

func TestStreamFraming(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	a, b := pair(t)
	go func() {
		msg, err := a.Seal(MsgMux, []byte("over the wire"))
		if err == nil {
			_ = WriteMessage(client, msg)
		}
	}()
	raw, err := ReadMessage(server)
	if err != nil {
		t.Fatal(err)
	}
	_, pt, err := b.Open(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "over the wire" {
		t.Fatalf("payload: %q", pt)
	}
}

func TestPayloadSizeLimit(t *testing.T) {
	a, _ := pair(t)
	if _, err := a.Seal(MsgMux, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize seal: %v", err)
	}
}

// Property: seal/open round-trips arbitrary payloads in sequence.
func TestQuickSealOpen(t *testing.T) {
	a, b := pair(t)
	f := func(payload []byte) bool {
		msg, err := a.Seal(MsgMux, payload)
		if err != nil {
			return false
		}
		_, pt, err := b.Open(msg)
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return len(pt) == 0
		}
		return bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSealOpen1KB(b *testing.B) {
	a, bb := pair(b)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg, err := a.Seal(MsgMux, payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := bb.Open(msg); err != nil {
			b.Fatal(err)
		}
	}
}
