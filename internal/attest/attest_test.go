package attest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
)

var _testImage = []byte("hypervisor-firmware-v1.0")

// fullHandshake provisions a device, boots it, and runs attestation.
func fullHandshake(t *testing.T) (*Session, *Session) {
	t.Helper()
	m, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := m.Provision("HT-0001")
	if err != nil {
		t.Fatal(err)
	}
	booted, err := dev.SecureBoot(_testImage)
	if err != nil {
		t.Fatal(err)
	}

	v := NewVerifier(m.PublicKey(), sha256.Sum256(_testImage))
	nonce, err := v.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	report, complete, err := booted.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	userSession, userPub, err := v.Verify(report, nonce)
	if err != nil {
		t.Fatal(err)
	}
	devSession, err := complete(userPub)
	if err != nil {
		t.Fatal(err)
	}
	return userSession, devSession
}

func TestAttestationEstablishesSharedKey(t *testing.T) {
	user, dev := fullHandshake(t)
	if user.Key != dev.Key {
		t.Fatal("DHKE produced different keys on each side")
	}
	if user.Key == ([32]byte{}) {
		t.Fatal("session key is zero")
	}
}

func TestSessionsAreUnique(t *testing.T) {
	s1, _ := fullHandshake(t)
	s2, _ := fullHandshake(t)
	if s1.Key == s2.Key {
		t.Fatal("two sessions derived the same key")
	}
}

func TestRejectsWrongManufacturer(t *testing.T) {
	// A1: fake pre-executor — device provisioned by a different
	// (adversarial) manufacturer must fail certificate verification.
	honest, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	evil, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := evil.Provision("HT-EVIL")
	if err != nil {
		t.Fatal(err)
	}
	booted, err := dev.SecureBoot(_testImage)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(honest.PublicKey(), sha256.Sum256(_testImage))
	nonce, _ := v.NewNonce()
	report, _, err := booted.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Verify(report, nonce); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("evil device accepted: %v", err)
	}
}

func TestRejectsWrongImage(t *testing.T) {
	m, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := m.Provision("HT-0002")
	if err != nil {
		t.Fatal(err)
	}
	booted, err := dev.SecureBoot([]byte("malicious-firmware"))
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(m.PublicKey(), sha256.Sum256(_testImage))
	nonce, _ := v.NewNonce()
	report, _, err := booted.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Verify(report, nonce); !errors.Is(err, ErrBadMeasurement) {
		t.Fatalf("wrong image accepted: %v", err)
	}
}

func TestRejectsReplayedNonce(t *testing.T) {
	m, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := m.Provision("HT-0003")
	if err != nil {
		t.Fatal(err)
	}
	booted, err := dev.SecureBoot(_testImage)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(m.PublicKey(), sha256.Sum256(_testImage))
	oldNonce, _ := v.NewNonce()
	report, _, err := booted.Attest(oldNonce)
	if err != nil {
		t.Fatal(err)
	}
	// The user expects a fresh nonce; the adversary replays the old
	// report.
	freshNonce, _ := v.NewNonce()
	if _, _, err := v.Verify(report, freshNonce); !errors.Is(err, ErrNonceMismatch) {
		t.Fatalf("replayed report accepted: %v", err)
	}
}

func TestRejectsTamperedReport(t *testing.T) {
	m, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := m.Provision("HT-0004")
	if err != nil {
		t.Fatal(err)
	}
	booted, err := dev.SecureBoot(_testImage)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(m.PublicKey(), sha256.Sum256(_testImage))
	nonce, _ := v.NewNonce()
	report, _, err := booted.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a MITM session key.
	report.SessionPub = append([]byte(nil), report.SessionPub...)
	report.SessionPub[10] ^= 0x01
	if _, _, err := v.Verify(report, nonce); !errors.Is(err, ErrBadReport) {
		t.Fatalf("tampered report accepted: %v", err)
	}
}

func TestPUFDeterminism(t *testing.T) {
	fuse := bytes.Repeat([]byte{0xaa}, 32)
	p1 := NewPUF("S1", fuse)
	p2 := NewPUF("S1", fuse)
	k1, err := p1.deviceKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := p2.deviceKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1.D.Cmp(k2.D) != 0 {
		t.Fatal("PUF-derived keys differ across boots")
	}
	// Different serials → different keys.
	p3 := NewPUF("S2", fuse)
	k3, err := p3.deviceKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1.D.Cmp(k3.D) == 0 {
		t.Fatal("different devices derived the same key")
	}
}

// bootDevice provisions and boots one device under m.
func bootDevice(t *testing.T, m *Manufacturer, serial string) *BootedDevice {
	t.Helper()
	dev, err := m.Provision(serial)
	if err != nil {
		t.Fatal(err)
	}
	booted, err := dev.SecureBoot(_testImage)
	if err != nil {
		t.Fatal(err)
	}
	return booted
}

// verifyOnce runs one attestation of booted against v and reports the
// asymmetric operations Verify alone performed.
func verifyOnce(t *testing.T, v *Verifier, booted *BootedDevice) (uint64, error) {
	t.Helper()
	nonce, err := v.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	report, _, err := booted.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	before := AsymOps()
	_, _, err = v.Verify(report, nonce)
	return AsymOps() - before, err
}

// TestVerifierRevocation: every Verify of a trusted device pays the
// full chain (there is no remembered verdict); a revoked serial fails
// Check and Verify with ErrDeviceRevoked before any asymmetric
// operation, and other devices under the same manufacturer stay
// trusted.
func TestVerifierRevocation(t *testing.T) {
	m, err := NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	revoked := bootDevice(t, m, "HT-9")
	clean := bootDevice(t, m, "HT-2")
	v := NewVerifier(m.PublicKey(), sha256.Sum256(_testImage))
	// Chain verify + report verify + user ECDH keygen + agreement.
	const fullVerifyOps = 4
	for i := 0; i < 2; i++ {
		ops, err := verifyOnce(t, v, revoked)
		if err != nil {
			t.Fatalf("verify %d before revocation: %v", i, err)
		}
		if ops != fullVerifyOps {
			t.Fatalf("verify %d cost %d asym ops, want %d", i, ops, fullVerifyOps)
		}
	}

	v.Revoke("HT-9")
	if err := v.Check("HT-9"); !errors.Is(err, ErrDeviceRevoked) {
		t.Fatalf("Check: got %v, want ErrDeviceRevoked", err)
	}
	if err := v.Check("HT-2"); err != nil {
		t.Fatalf("Check on clean serial: %v", err)
	}
	ops, err := verifyOnce(t, v, revoked)
	if !errors.Is(err, ErrDeviceRevoked) {
		t.Fatalf("verify of revoked device: got %v, want ErrDeviceRevoked", err)
	}
	if ops != 0 {
		t.Fatalf("refusing a revoked device cost %d asym ops, want 0", ops)
	}
	if ops, err := verifyOnce(t, v, clean); err != nil || ops != fullVerifyOps {
		t.Fatalf("verify of clean device after another's revocation: %d asym ops, %v", ops, err)
	}

	// Concurrent dials and revocations share the list safely.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(serial string) {
			defer wg.Done()
			v.Revoke(serial)
			if err := v.Check(serial); !errors.Is(err, ErrDeviceRevoked) {
				t.Errorf("Check(%s) after Revoke: %v", serial, err)
			}
			if err := v.Check("HT-2"); err != nil {
				t.Errorf("Check on clean serial during revocations: %v", err)
			}
		}(fmt.Sprintf("HT-C%d", i))
	}
	wg.Wait()
}
