// Package attest implements HarDTAPE's chain of trust (paper §IV-A):
// a Manufacturer-provisioned PUF seeds the device key pair, the
// Manufacturer certifies the device public key, the secure bootloader
// measures the booted image, and remote attestation proves both to a
// user before a DHKE-established AES session key opens the secure
// channel. The protocol follows ShEF (Zhao et al., ASPLOS'22), the
// design the paper adopts: the device signs the session key and a
// user-supplied nonce to defeat man-in-the-middle and replay.
package attest

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
)

// asymOps counts asymmetric operations (ECDSA sign/verify, ECDH
// keygen/agreement) performed through this package. The session
// subsystem's core claim — a warm resume performs ZERO asymmetric
// crypto — is asserted against this counter by test instrumentation,
// not argued from code reading.
var asymOps atomic.Uint64

// AsymOps returns the cumulative asymmetric-operation count.
func AsymOps() uint64 { return asymOps.Load() }

// RecordAsymOps adds n external asymmetric operations (e.g. per-bundle
// ECDSA signatures performed by the channel layer) to the counter.
func RecordAsymOps(n uint64) { asymOps.Add(n) }

// Errors.
var (
	ErrBadCertificate = errors.New("attest: device certificate invalid")
	ErrBadReport      = errors.New("attest: attestation report invalid")
	ErrBadMeasurement = errors.New("attest: image measurement mismatch")
	ErrNonceMismatch  = errors.New("attest: nonce mismatch (replay?)")
	// ErrDeviceRevoked reports a device on the verifier's revocation
	// list.
	ErrDeviceRevoked = errors.New("attest: device revoked")
)

// PUF simulates the physically unclonable function: a per-device
// secret that never leaves the chip. The simulation derives it from a
// fused serial; the real artifact is silicon variation.
type PUF struct {
	secret [32]byte
}

// NewPUF derives a device PUF from its (public) serial and the
// manufacturing fuse entropy.
func NewPUF(serial string, fuse []byte) *PUF {
	h := sha256.New()
	h.Write([]byte("hardtape-puf-v1"))
	h.Write([]byte(serial))
	h.Write(fuse)
	var p PUF
	copy(p.secret[:], h.Sum(nil))
	return &p
}

// deviceKey deterministically derives the device's ECDSA P-256 key
// from the PUF (re-derived at every boot; never stored).
func (p *PUF) deviceKey() (*ecdsa.PrivateKey, error) {
	// Hash-to-scalar, retrying on out-of-range (negligible probability).
	seed := p.secret
	for i := 0; i < 8; i++ {
		d := new(big.Int).SetBytes(seed[:])
		n := elliptic.P256().Params().N
		if d.Sign() > 0 && d.Cmp(n) < 0 {
			priv := new(ecdsa.PrivateKey)
			priv.Curve = elliptic.P256()
			priv.D = d
			priv.PublicKey.X, priv.PublicKey.Y = priv.Curve.ScalarBaseMult(d.Bytes())
			return priv, nil
		}
		seed = sha256.Sum256(seed[:])
	}
	return nil, errors.New("attest: key derivation failed")
}

// Manufacturer is the trusted device maker: it provisions PUF fuses
// and signs device certificates.
type Manufacturer struct {
	key *ecdsa.PrivateKey
}

// NewManufacturer creates a manufacturer with a fresh root key.
func NewManufacturer() (*Manufacturer, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attest: manufacturer key: %w", err)
	}
	return &Manufacturer{key: key}, nil
}

// PublicKey returns the manufacturer root of trust users pin.
func (m *Manufacturer) PublicKey() *ecdsa.PublicKey {
	return &m.key.PublicKey
}

// Certificate binds a device public key to its serial under the
// manufacturer's signature.
type Certificate struct {
	Serial    string
	DevicePub []byte // uncompressed point
	Sig       []byte // ASN.1 ECDSA over sha256(serial || devicePub)
}

// Provision fabricates a device: generates fuse entropy, builds the
// PUF, derives the device key, and signs its certificate.
func (m *Manufacturer) Provision(serial string) (*Device, error) {
	fuse := make([]byte, 32)
	if _, err := rand.Read(fuse); err != nil {
		return nil, fmt.Errorf("attest: fuse entropy: %w", err)
	}
	puf := NewPUF(serial, fuse)
	devKey, err := puf.deviceKey()
	if err != nil {
		return nil, err
	}
	pub := elliptic.Marshal(elliptic.P256(), devKey.PublicKey.X, devKey.PublicKey.Y)
	digest := certDigest(serial, pub)
	sig, err := ecdsa.SignASN1(rand.Reader, m.key, digest)
	if err != nil {
		return nil, fmt.Errorf("attest: sign certificate: %w", err)
	}
	return &Device{
		Serial: serial,
		puf:    puf,
		cert:   Certificate{Serial: serial, DevicePub: pub, Sig: sig},
	}, nil
}

func certDigest(serial string, pub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("hardtape-cert-v1"))
	h.Write([]byte(serial))
	h.Write(pub)
	return h.Sum(nil)
}

// Device is the provisioned chip: PUF + certificate. SecureBoot
// produces a booted device bound to an image measurement.
type Device struct {
	Serial string
	puf    *PUF
	cert   Certificate
}

// Certificate returns the manufacturer-signed device certificate.
func (d *Device) Certificate() Certificate { return d.cert }

// BootedDevice is a device after secure boot: it holds the re-derived
// device key and the measurement of the running image.
type BootedDevice struct {
	dev         *Device
	key         *ecdsa.PrivateKey
	measurement [32]byte
}

// SecureBoot verifies nothing here (the CSU checks the image signature
// in hardware); it measures the image and re-derives the device key
// from the PUF, exactly the state a booted Hypervisor holds.
func (d *Device) SecureBoot(image []byte) (*BootedDevice, error) {
	key, err := d.puf.deviceKey()
	if err != nil {
		return nil, err
	}
	return &BootedDevice{
		dev:         d,
		key:         key,
		measurement: sha256.Sum256(image),
	}, nil
}

// Measurement returns the booted image hash.
func (b *BootedDevice) Measurement() [32]byte { return b.measurement }

// Serial returns the device identity (ticket binding, revocation).
func (b *BootedDevice) Serial() string { return b.dev.Serial }

// Report is the remote attestation response: the device signs the
// measurement, its ephemeral session (ECDH) public key, and the user's
// nonce.
type Report struct {
	Cert        Certificate
	Measurement [32]byte
	SessionPub  []byte // ECDH P-256 public key
	Nonce       [32]byte
	Sig         []byte // ASN.1 ECDSA by the device key
}

// session holds the device's side of an in-progress key exchange.
type Session struct {
	// Key is the derived AES-256 session key.
	Key [32]byte
}

// Attest answers a user's attestation request: generate an ephemeral
// ECDH key, sign (measurement, session pub, nonce), and return the
// report plus a continuation that completes the exchange when the
// user's ECDH public key arrives.
func (b *BootedDevice) Attest(nonce [32]byte) (*Report, func(userPub []byte) (*Session, error), error) {
	asymOps.Add(2) // ephemeral ECDH keygen + report ECDSA sign
	eph, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: ephemeral key: %w", err)
	}
	report := &Report{
		Cert:        b.dev.cert,
		Measurement: b.measurement,
		SessionPub:  eph.PublicKey().Bytes(),
		Nonce:       nonce,
	}
	digest := reportDigest(report)
	sig, err := ecdsa.SignASN1(rand.Reader, b.key, digest)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: sign report: %w", err)
	}
	report.Sig = sig

	complete := func(userPub []byte) (*Session, error) {
		asymOps.Add(1) // ECDH agreement
		peer, err := ecdh.P256().NewPublicKey(userPub)
		if err != nil {
			return nil, fmt.Errorf("attest: peer key: %w", err)
		}
		shared, err := eph.ECDH(peer)
		if err != nil {
			return nil, fmt.Errorf("attest: ecdh: %w", err)
		}
		return &Session{Key: deriveKey(shared, report.Nonce)}, nil
	}
	return report, complete, nil
}

func reportDigest(r *Report) []byte {
	h := sha256.New()
	h.Write([]byte("hardtape-report-v1"))
	h.Write(r.Measurement[:])
	h.Write(r.SessionPub)
	h.Write(r.Nonce[:])
	return h.Sum(nil)
}

// deriveKey turns the ECDH shared secret into the AES session key.
func deriveKey(shared []byte, nonce [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("hardtape-session-v1"))
	h.Write(shared)
	h.Write(nonce[:])
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}

// Verifier is the user side: it pins the manufacturer key and the
// expected image measurement, and keeps the list of revoked device
// serials. Safe for concurrent use.
type Verifier struct {
	manufacturerPub *ecdsa.PublicKey
	expectedImage   [32]byte
	rng             io.Reader

	mu      sync.Mutex
	revoked map[string]struct{}
}

// NewVerifier builds a verifier for a known-good image hash.
func NewVerifier(manufacturerPub *ecdsa.PublicKey, expectedImage [32]byte) *Verifier {
	return &Verifier{
		manufacturerPub: manufacturerPub,
		expectedImage:   expectedImage,
		rng:             rand.Reader,
		revoked:         make(map[string]struct{}),
	}
}

// Revoke puts a device serial on the revocation list: from now on
// Verify and Check fail with ErrDeviceRevoked for it. Used when the
// manufacturer or fleet operator distrusts a device.
func (v *Verifier) Revoke(serial string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.revoked[serial] = struct{}{}
}

// Check returns ErrDeviceRevoked if the serial is on the revocation
// list. Resume paths call it before presenting a ticket, since a
// resume never runs Verify.
func (v *Verifier) Check(serial string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, bad := v.revoked[serial]; bad {
		return ErrDeviceRevoked
	}
	return nil
}

// NewNonce samples a fresh challenge.
func (v *Verifier) NewNonce() ([32]byte, error) {
	var n [32]byte
	if _, err := io.ReadFull(v.rng, n[:]); err != nil {
		return n, fmt.Errorf("attest: nonce: %w", err)
	}
	return n, nil
}

// Verify checks the report chain and, on success, completes the DHKE
// with a fresh user key, returning the session and the user's ECDH
// public key (to send to the device). A revoked device fails before
// any asymmetric operation runs.
func (v *Verifier) Verify(report *Report, nonce [32]byte) (*Session, []byte, error) {
	if err := v.Check(report.Cert.Serial); err != nil {
		return nil, nil, err
	}
	asymOps.Add(1) // certificate-chain ECDSA verify
	// 1. Certificate chain: manufacturer signed the device key.
	certHash := certDigest(report.Cert.Serial, report.Cert.DevicePub)
	if !ecdsa.VerifyASN1(v.manufacturerPub, certHash, report.Cert.Sig) {
		return nil, nil, ErrBadCertificate
	}
	asymOps.Add(3) // report verify + user ECDH keygen + agreement
	// 2. Report signature by the device key.
	x, y := elliptic.Unmarshal(elliptic.P256(), report.Cert.DevicePub)
	if x == nil {
		return nil, nil, ErrBadCertificate
	}
	devPub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	if !ecdsa.VerifyASN1(devPub, reportDigest(report), report.Sig) {
		return nil, nil, ErrBadReport
	}
	// 3. Nonce freshness. Constant-time: comparison latency must not
	// tell a probing SP how many nonce bytes it guessed right.
	if subtle.ConstantTimeCompare(report.Nonce[:], nonce[:]) != 1 {
		return nil, nil, ErrNonceMismatch
	}
	// 4. Image measurement, same discipline.
	if subtle.ConstantTimeCompare(report.Measurement[:], v.expectedImage[:]) != 1 {
		return nil, nil, ErrBadMeasurement
	}
	// 5. Complete DHKE.
	userKey, err := ecdh.P256().GenerateKey(v.rng)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: user key: %w", err)
	}
	devEph, err := ecdh.P256().NewPublicKey(report.SessionPub)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: session pub: %v", ErrBadReport, err)
	}
	shared, err := userKey.ECDH(devEph)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: ecdh: %w", err)
	}
	return &Session{Key: deriveKey(shared, nonce)}, userKey.PublicKey().Bytes(), nil
}
