package session

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
)

// A resumption ticket is self-authenticating state the service hands
// to the user so the service itself can stay (almost) stateless: the
// ticket body — resumption PSK, session id, expiry epoch, and the
// device identity + image measurement it was attested under — is
// sealed with AES-GCM under a service-local ticket-encryption key
// (STEK) that never leaves the trusted boundary. The user cannot read
// or forge a ticket; it can only present it back.
//
// Wire layout:
//
//	keyID(4) ‖ nonce(12) ‖ AES-GCM(body)
//	body: ver(1) ‖ sessionID(8) ‖ expiryEpoch(8) ‖ psk(32) ‖
//	      measurement(32) ‖ serialLen(2) ‖ serial
//
// The only per-ticket state the service keeps is the anti-replay set:
// tickets are single-use (every resume mints a successor), and a
// redeemed ticket's fingerprint is remembered until its expiry epoch
// passes, bounding the set's size by issue rate × lifetime.

const (
	ticketVersion   = 1
	ticketKeyIDLen  = 4
	ticketAAD       = "hardtape-ticket-v1"
	ticketFixedBody = 1 + 8 + 8 + 32 + 32 + 2
)

// DefaultTicketLifetimeEpochs is the default ticket validity (60
// one-minute epochs: long enough to amortize bursts, short enough
// that the revocation window stays tight).
const DefaultTicketLifetimeEpochs = 60

// State is the server-side resumption state a ticket carries.
type State struct {
	SessionID   uint64
	PSK         [32]byte
	Serial      string
	Measurement [32]byte
	ExpiryEpoch uint64
}

// TicketIssuer mints and redeems resumption tickets. It is safe for
// concurrent use; one issuer typically lives per Service (sharing one
// across services would let tickets roam, which the fleet gateway
// exploits deliberately by terminating sessions itself).
type TicketIssuer struct {
	clock    Clock
	lifetime uint64 // epochs
	keyID    [ticketKeyIDLen]byte
	aead     cipher.AEAD

	mu        sync.Mutex
	redeemed  map[[16]byte]uint64 // ticket fingerprint → expiry epoch
	lastPrune uint64
}

// NewTicketIssuer creates an issuer with a fresh random STEK. The
// clock is injected so expiry is deterministic under test; lifetime
// <= 0 selects DefaultTicketLifetimeEpochs.
func NewTicketIssuer(clock Clock, lifetimeEpochs int) (*TicketIssuer, error) {
	if clock == nil {
		clock = SystemClock()
	}
	if lifetimeEpochs <= 0 {
		lifetimeEpochs = DefaultTicketLifetimeEpochs
	}
	var stek [32]byte
	if _, err := rand.Read(stek[:]); err != nil {
		return nil, fmt.Errorf("session: ticket key: %w", err)
	}
	blk, err := aes.NewCipher(stek[:])
	ZeroKey(&stek)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	ti := &TicketIssuer{
		clock:    clock,
		lifetime: uint64(lifetimeEpochs),
		aead:     aead,
		redeemed: make(map[[16]byte]uint64),
	}
	if _, err := rand.Read(ti.keyID[:]); err != nil {
		return nil, fmt.Errorf("session: ticket key id: %w", err)
	}
	return ti, nil
}

// Epoch returns the issuer's current epoch.
func (ti *TicketIssuer) Epoch() uint64 { return EpochAt(ti.clock.Now()) }

// Issue seals st into a wire ticket, stamping st.ExpiryEpoch from the
// issuer's clock. The caller's PSK is copied into the sealed body and
// remains the caller's to zero.
func (ti *TicketIssuer) Issue(st *State) ([]byte, error) {
	st.ExpiryEpoch = ti.Epoch() + ti.lifetime
	if len(st.Serial) > 0xFFFF {
		return nil, fmt.Errorf("session: serial too long: %d", len(st.Serial))
	}
	body := make([]byte, ticketFixedBody+len(st.Serial))
	body[0] = ticketVersion
	binary.BigEndian.PutUint64(body[1:9], st.SessionID)
	binary.BigEndian.PutUint64(body[9:17], st.ExpiryEpoch)
	copy(body[17:49], st.PSK[:])
	copy(body[49:81], st.Measurement[:])
	binary.BigEndian.PutUint16(body[81:83], uint16(len(st.Serial)))
	copy(body[83:], st.Serial)

	nonce := make([]byte, ti.aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		Zero(body)
		return nil, fmt.Errorf("session: ticket nonce: %w", err)
	}
	out := make([]byte, 0, ticketKeyIDLen+len(nonce)+len(body)+ti.aead.Overhead())
	out = append(out, ti.keyID[:]...)
	out = append(out, nonce...)
	out = ti.aead.Seal(out, nonce, body, ti.aad())
	Zero(body) // the plaintext PSK copy must not linger
	return out, nil
}

// Redeem authenticates, decrypts, and consumes a wire ticket. It
// fails closed with ErrTicketTampered, ErrTicketExpired, or
// ErrTicketReplayed; on success the ticket's fingerprint is burned
// until its expiry epoch passes, so a second redemption is refused
// even within the validity window.
func (ti *TicketIssuer) Redeem(wire []byte) (*State, error) {
	nonceLen := ti.aead.NonceSize()
	if len(wire) < ticketKeyIDLen+nonceLen+ti.aead.Overhead()+ticketFixedBody {
		return nil, ErrTicketTampered
	}
	// The key id is public routing data, not secret material.
	//hardtape:consttime-ok the ticket key id is a public key-rotation selector, not a secret
	if subtle.ConstantTimeCompare(wire[:ticketKeyIDLen], ti.keyID[:]) != 1 {
		return nil, ErrTicketTampered
	}
	nonce := wire[ticketKeyIDLen : ticketKeyIDLen+nonceLen]
	body, err := ti.aead.Open(nil, nonce, wire[ticketKeyIDLen+nonceLen:], ti.aad())
	if err != nil {
		return nil, ErrTicketTampered
	}
	defer Zero(body)
	if len(body) < ticketFixedBody || body[0] != ticketVersion {
		return nil, ErrTicketTampered
	}
	serialLen := int(binary.BigEndian.Uint16(body[81:83]))
	if len(body) != ticketFixedBody+serialLen {
		return nil, ErrTicketTampered
	}
	st := &State{
		SessionID:   binary.BigEndian.Uint64(body[1:9]),
		ExpiryEpoch: binary.BigEndian.Uint64(body[9:17]),
		Serial:      string(body[83 : 83+serialLen]),
	}
	copy(st.PSK[:], body[17:49])
	copy(st.Measurement[:], body[49:81])

	now := ti.Epoch()
	if now > st.ExpiryEpoch {
		ZeroKey(&st.PSK)
		return nil, ErrTicketExpired
	}
	if err := ti.burn(fingerprint(wire), st.ExpiryEpoch, now); err != nil {
		ZeroKey(&st.PSK)
		return nil, err
	}
	return st, nil
}

// burn marks a ticket fingerprint redeemed, pruning fingerprints whose
// expiry epoch passed (they can never be redeemed again anyway).
func (ti *TicketIssuer) burn(fp [16]byte, expiry, now uint64) error {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if now > ti.lastPrune {
		for k, exp := range ti.redeemed {
			if now > exp {
				delete(ti.redeemed, k)
			}
		}
		ti.lastPrune = now
	}
	if _, dup := ti.redeemed[fp]; dup {
		return ErrTicketReplayed
	}
	ti.redeemed[fp] = expiry
	return nil
}

// RedeemedCount reports the anti-replay set size (tests, stats).
func (ti *TicketIssuer) RedeemedCount() int {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	return len(ti.redeemed)
}

func (ti *TicketIssuer) aad() []byte {
	aad := make([]byte, 0, len(ticketAAD)+ticketKeyIDLen)
	aad = append(aad, ticketAAD...)
	return append(aad, ti.keyID[:]...)
}

// fingerprint is the anti-replay key for a wire ticket: a hash, so
// the replay set never stores ticket ciphertext.
func fingerprint(wire []byte) [16]byte {
	sum := sha256.Sum256(wire)
	var fp [16]byte
	copy(fp[:], sum[:16])
	return fp
}
