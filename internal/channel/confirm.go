package channel

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
)

// Key confirmation closes the handshake gap the key-exchange message
// leaves open: the DHKE completion is plaintext, so before the bundle
// loop starts each side should prove it actually derived the same
// session key. Without this, a tampered exchange is only discovered
// later, as an unattributable AEAD failure on the first payload.
//
// The tag is HMAC-SHA256 over a domain label, the session id, the
// sender's role and any handshake values the caller binds; binding the
// role prevents reflecting a peer's own tag back at it. The cold
// handshake binds both per-session signing keys as the user saw them,
// so a key the SP swapped on the plaintext legs fails the tag.

// ConfirmTagSize is the length of a key-confirmation tag.
const ConfirmTagSize = 32

// ErrBadConfirmTag reports a failed session-key confirmation: the
// peer does not hold the negotiated key.
var ErrBadConfirmTag = errors.New("channel: session-key confirmation failed")

// ConfirmTag derives the key-confirmation tag the role side sends
// after key exchange (role is "user" or "device"). Each bound value is
// length-prefixed, so no two value lists share a tag.
func ConfirmTag(key [32]byte, sessionID uint64, role string, bound ...[]byte) [ConfirmTagSize]byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte("hardtape-confirm-v1"))
	var sid [8]byte
	binary.BigEndian.PutUint64(sid[:], sessionID)
	mac.Write(sid[:])
	mac.Write([]byte(role))
	for _, v := range bound {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(v)))
		mac.Write(n[:])
		mac.Write(v)
	}
	var tag [ConfirmTagSize]byte
	copy(tag[:], mac.Sum(nil))
	return tag
}

// VerifyConfirmTag checks a peer's confirmation tag, over the same
// bound values, in constant time.
func VerifyConfirmTag(key [32]byte, sessionID uint64, role string, tag []byte, bound ...[]byte) error {
	want := ConfirmTag(key, sessionID, role, bound...)
	if subtle.ConstantTimeCompare(want[:], tag) != 1 {
		return ErrBadConfirmTag
	}
	return nil
}
