// Package channel implements HarDTAPE's protected message protocol
// (paper §IV-C): every datum crossing the trusted-untrusted border
// travels in a message with a fixed 32-byte header — the only part
// the Hypervisor parses — followed by a payload handled entirely by
// the authenticated-encryption DMA (here, real AES-GCM). The fixed
// header is the control-flow-integrity argument of §V(A3): the
// Hypervisor never buffers attacker-sized input in its own memory.
package channel

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// HeaderSize is the fixed message header length (paper: 32 bytes).
const HeaderSize = 32

// MaxPayload bounds a message payload (16 MB), checked before any DMA.
const MaxPayload = 16 << 20

// MsgType labels the message purpose.
type MsgType uint8

// Message types crossing the border.
const (
	MsgAttestRequest MsgType = iota + 1
	MsgAttestReport
	MsgKeyExchange
	// Session-resumption handshake (internal/session). The request,
	// accept, and reject legs travel in plaintext — they carry only the
	// opaque ticket, rekey nonces, and key-confirmation tags, none of
	// which is confidential — while confirm and ticket-issue ride the
	// freshly rekeyed secure channel.
	MsgResumeRequest
	MsgResumeAccept
	MsgResumeReject
	MsgResumeConfirm
	// MsgTicketIssue delivers a (rotated) resumption ticket over the
	// established channel at the end of a cold or warm handshake.
	MsgTicketIssue
	// MsgMux / MsgMuxReply carry multiplexed request-id-framed exchanges
	// — many interleaved bundles on one connection.
	MsgMux
	MsgMuxReply
)

// Flags.
const (
	// FlagEncrypted marks AES-GCM payload protection.
	FlagEncrypted uint8 = 1 << iota
	// FlagSigned marks an appended ECDSA signature (the -ES config).
	FlagSigned
)

// Errors.
var (
	ErrBadHeader    = errors.New("channel: malformed header")
	ErrBadMagic     = errors.New("channel: bad magic")
	ErrTooLarge     = errors.New("channel: payload exceeds limit")
	ErrAuthFailed   = errors.New("channel: payload authentication failed")
	ErrBadSignature = errors.New("channel: signature verification failed")
	ErrReplay       = errors.New("channel: sequence replayed or reordered")
)

// Header is the fixed 32-byte message header.
//
// Layout: magic(2) | version(1) | type(1) | flags(1) | rsvd(3) |
// session(8) | seq(8) | length(4) | rsvd(4).
type Header struct {
	Type    MsgType
	Flags   uint8
	Session uint64
	Seq     uint64
	Length  uint32
}

const _version = 1

// Marshal encodes the header.
func (h *Header) Marshal() [HeaderSize]byte {
	var out [HeaderSize]byte
	out[0], out[1] = 0x48, 0xD7 // "H", 0xD7
	out[2] = _version
	out[3] = byte(h.Type)
	out[4] = h.Flags
	binary.BigEndian.PutUint64(out[8:16], h.Session)
	binary.BigEndian.PutUint64(out[16:24], h.Seq)
	binary.BigEndian.PutUint32(out[24:28], h.Length)
	return out
}

// ParseHeader validates and decodes a 32-byte header. This mirrors the
// Hypervisor's only software parsing step: type, length, and offsets
// are checked before any DMA is configured.
func ParseHeader(raw []byte) (*Header, error) {
	if len(raw) != HeaderSize {
		return nil, fmt.Errorf("%w: length %d", ErrBadHeader, len(raw))
	}
	if raw[0] != 0x48 || raw[1] != 0xD7 {
		return nil, ErrBadMagic
	}
	if raw[2] != _version {
		return nil, fmt.Errorf("%w: version %d", ErrBadHeader, raw[2])
	}
	h := &Header{
		Type:    MsgType(raw[3]),
		Flags:   raw[4],
		Session: binary.BigEndian.Uint64(raw[8:16]),
		Seq:     binary.BigEndian.Uint64(raw[16:24]),
		Length:  binary.BigEndian.Uint32(raw[24:28]),
	}
	if h.Type < MsgAttestRequest || h.Type > MsgMuxReply {
		return nil, fmt.Errorf("%w: type %d", ErrBadHeader, h.Type)
	}
	if h.Length > MaxPayload {
		return nil, ErrTooLarge
	}
	return h, nil
}

// SecureChannel protects payloads with the session AES key and,
// optionally, per-bundle ECDSA signatures. Both endpoints construct
// one from the attestation session key.
type SecureChannel struct {
	aead      cipher.AEAD
	session   uint64
	sendSeq   uint64
	recvSeq   uint64
	signKey   *ecdsa.PrivateKey
	verifyKey *ecdsa.PublicKey
}

// NewSecureChannel builds a channel from a 32-byte session key.
func NewSecureChannel(sessionKey [32]byte, sessionID uint64) (*SecureChannel, error) {
	blk, err := aes.NewCipher(sessionKey[:])
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	return &SecureChannel{aead: aead, session: sessionID}, nil
}

// EnableSigning adds the -ES signature layer: sign with own key,
// verify the peer's. From then on Open requires a signature on every
// frame: the flags are outside the AEAD's associated data, so an
// unsigned frame may be a signed one whose signature was stripped.
func (c *SecureChannel) EnableSigning(own *ecdsa.PrivateKey, peer *ecdsa.PublicKey) {
	c.signKey = own
	c.verifyKey = peer
}

// Seal builds a full wire message (header || ciphertext [|| signature]).
func (c *SecureChannel) Seal(t MsgType, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, ErrTooLarge
	}
	c.sendSeq++
	h := Header{Type: t, Flags: FlagEncrypted, Session: c.session, Seq: c.sendSeq}

	nonce := make([]byte, c.aead.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], c.sendSeq)
	hdrForAD := h
	ct := c.aead.Seal(nil, nonce, payload, adFor(&hdrForAD))

	var sig []byte
	if c.signKey != nil {
		h.Flags |= FlagSigned
		digest := sha256.Sum256(ct)
		var err error
		sig, err = ecdsa.SignASN1(rand.Reader, c.signKey, digest[:])
		if err != nil {
			return nil, fmt.Errorf("channel: sign: %w", err)
		}
	}

	h.Length = uint32(len(ct))
	hdr := h.Marshal()
	// The signature length rides in the header's reserved tail so the
	// receiver can split ciphertext from signature.
	binary.BigEndian.PutUint32(hdr[28:32], uint32(len(sig)))

	out := make([]byte, 0, HeaderSize+len(ct)+len(sig))
	out = append(out, hdr[:]...)
	out = append(out, ct...)
	out = append(out, sig...)
	return out, nil
}

// adFor binds header fields (without Length, which differs between
// seal-time passes) into the AEAD associated data.
func adFor(h *Header) []byte {
	var ad [24]byte
	ad[0] = byte(h.Type)
	binary.BigEndian.PutUint64(ad[8:16], h.Session)
	binary.BigEndian.PutUint64(ad[16:24], h.Seq)
	return ad[:]
}

// Open verifies and decrypts a full wire message, enforcing strictly
// increasing sequence numbers (replay defense).
func (c *SecureChannel) Open(msg []byte) (*Header, []byte, error) {
	if len(msg) < HeaderSize {
		return nil, nil, ErrBadHeader
	}
	h, err := ParseHeader(msg[:HeaderSize])
	if err != nil {
		return nil, nil, err
	}
	if h.Session != c.session {
		return nil, nil, fmt.Errorf("%w: session %d", ErrBadHeader, h.Session)
	}
	if h.Seq <= c.recvSeq {
		return nil, nil, ErrReplay
	}
	sigLen := binary.BigEndian.Uint32(msg[28:32])
	body := msg[HeaderSize:]
	if uint64(len(body)) != uint64(h.Length)+uint64(sigLen) {
		return nil, nil, fmt.Errorf("%w: body %d != %d+%d", ErrBadHeader, len(body), h.Length, sigLen)
	}
	ct := body[:h.Length]
	sig := body[h.Length:]

	signed := h.Flags&FlagSigned != 0
	if signed != (c.verifyKey != nil) {
		return nil, nil, ErrBadSignature
	}
	if signed {
		digest := sha256.Sum256(ct)
		if !ecdsa.VerifyASN1(c.verifyKey, digest[:], sig) {
			return nil, nil, ErrBadSignature
		}
	}

	nonce := make([]byte, c.aead.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], h.Seq)
	pt, err := c.aead.Open(nil, nonce, ct, adFor(h))
	if err != nil {
		return nil, nil, ErrAuthFailed
	}
	c.recvSeq = h.Seq
	return h, pt, nil
}

// WriteMessage frames a sealed message onto a stream.
func WriteMessage(w io.Writer, msg []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(msg)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("channel: write frame: %w", err)
	}
	if _, err := w.Write(msg); err != nil {
		return fmt.Errorf("channel: write body: %w", err)
	}
	return nil
}

// ReadMessage reads one framed message from a stream.
func ReadMessage(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("channel: read frame: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxPayload+HeaderSize+128 {
		return nil, ErrTooLarge
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, fmt.Errorf("channel: read body: %w", err)
	}
	return msg, nil
}
