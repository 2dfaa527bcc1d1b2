package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"

	"hardtape/internal/attest"
)

// Paper §IV-D, "ORAM key protection": the SP runs one ORAM server for
// multiple HarDTAPE instances; because every ORAM client lives inside
// a trusted Hypervisor, the devices share one ORAM key. "The key is
// chosen randomly by the first HarDTAPE Hypervisor when deployed.
// When adding a new HarDTAPE device, it queries the ORAM key from a
// previous device through a DHKE secure channel." This file implements
// that transfer: the requesting device plays the verifier role of the
// attestation protocol against the provider (same chain of trust users
// rely on), and the key crosses the wire AES-GCM-sealed under the
// DHKE session key.
//
// Each device still maintains its own on-chip stash, position map, and
// page dictionary (per Path ORAM's client-side state); the shared key
// is what lets them decrypt the same tree. NOTE: the paper does not
// specify how concurrently-writing devices coordinate their position
// maps — with independent maps, one device's path rewrites relocate
// blocks the other still expects on old paths. We therefore support
// (and test) the sound deployment: one writing device per tree region
// at a time, with the key hand-off enabling a replacement or scale-out
// device to take over the shared server.

// ErrNoORAMKey is returned when the provider has no ORAM configured.
var ErrNoORAMKey = errors.New("core: device has no ORAM key to share")

// ORAMKeyOffer is the provider's sealed key response.
type ORAMKeyOffer struct {
	Report attest.Report
	// Sealed is nonce||AES-GCM(sessionKey, oramKey).
	Sealed []byte
}

// OfferORAMKey produces the provider side of the transfer: it attests
// itself against the requester's nonce and, once the requester's DHKE
// public key arrives, seals the ORAM key under the session key.
// The two-step shape mirrors the user attestation flow.
func (d *Device) OfferORAMKey(nonce [32]byte) (*ORAMKeyOffer, func(requesterPub []byte) ([]byte, error), error) {
	key := append([]byte(nil), d.oramKey...)
	if len(key) == 0 {
		return nil, nil, ErrNoORAMKey
	}
	report, complete, err := d.booted.Attest(nonce)
	if err != nil {
		return nil, nil, err
	}
	offer := &ORAMKeyOffer{Report: *report}
	finish := func(requesterPub []byte) ([]byte, error) {
		session, err := complete(requesterPub)
		if err != nil {
			return nil, err
		}
		return sealKey(session.Key, key)
	}
	return offer, finish, nil
}

// RequestORAMKey runs the requester side end to end against an
// in-process provider: verify the provider's attestation, complete
// DHKE, and unseal the ORAM key. No wire carries this exchange yet;
// only tests call it.
func RequestORAMKey(provider *Device, verifier *attest.Verifier) ([]byte, error) {
	nonce, err := verifier.NewNonce()
	if err != nil {
		return nil, err
	}
	offer, finish, err := provider.OfferORAMKey(nonce)
	if err != nil {
		return nil, err
	}
	session, requesterPub, err := verifier.Verify(&offer.Report, nonce)
	if err != nil {
		return nil, fmt.Errorf("core: provider attestation failed: %w", err)
	}
	sealed, err := finish(requesterPub)
	if err != nil {
		return nil, err
	}
	return openKey(session.Key, sealed)
}

func sealKey(sessionKey [32]byte, oramKey []byte) ([]byte, error) {
	blk, err := aes.NewCipher(sessionKey[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return append(nonce, aead.Seal(nil, nonce, oramKey, []byte("oram-key-v1"))...), nil
}

func openKey(sessionKey [32]byte, sealed []byte) ([]byte, error) {
	blk, err := aes.NewCipher(sessionKey[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, err
	}
	if len(sealed) < aead.NonceSize() {
		return nil, errors.New("core: sealed key too short")
	}
	key, err := aead.Open(nil, sealed[:aead.NonceSize()], sealed[aead.NonceSize():], []byte("oram-key-v1"))
	if err != nil {
		return nil, fmt.Errorf("core: key transfer authentication failed: %w", err)
	}
	return key, nil
}
