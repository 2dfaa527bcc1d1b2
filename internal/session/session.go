// Package session implements HarDTAPE's resumable-session layer: the
// amortization of the ~80 ms A53 attest + DHKE round (the dominant
// cost in the paper's Fig. 4 breakdown) across many bundles and many
// reconnects.
//
// It sits between internal/channel / internal/attest and the
// service/fleet layers and has two parts:
//
//   - Resumption tickets ([TicketIssuer], [ClientTicket]): the first
//     handshake mints an encrypted, self-authenticating ticket holding
//     an HKDF-derived pre-shared key. A later connection redeems the
//     ticket and completes a cheap AES-GCM rekey — fresh nonce-salted
//     traffic keys, key-confirmation tags, zero asymmetric crypto.
//     Tickets are single-use and rotate on every resume.
//   - Connection multiplexing ([Mux]): one secure channel carries many
//     interleaved request/response exchanges matched by request id,
//     so a warm session amortizes connection setup too.
//
// The model is the e-vTPM SEV-SNP attestation flow (attest once,
// derive many session credentials); the cheap rekey path stays inside
// the trusted boundary as in T-Edge's split.
package session

import "errors"

// Typed failures. Every adversarial path fails closed with one of
// these; the wire carries only a coarse reject code (see RejectCode).
var (
	// ErrTicketTampered reports a ticket that failed authenticated
	// decryption (bit-flipped, truncated, or sealed under an unknown
	// ticket key — e.g. by a restarted service).
	ErrTicketTampered = errors.New("session: ticket tampered or unknown")
	// ErrTicketExpired reports a ticket presented after its expiry
	// epoch.
	ErrTicketExpired = errors.New("session: ticket expired")
	// ErrTicketReplayed reports a ticket redeemed a second time;
	// tickets are strictly single-use (each resume mints a successor).
	ErrTicketReplayed = errors.New("session: ticket replayed")
	// ErrMeasurementChanged reports a resume against a device whose
	// booted image measurement no longer matches the one the ticket
	// was bound to.
	ErrMeasurementChanged = errors.New("session: image measurement changed since ticket issue")
	// ErrResumeRejected is the client-side fallback when the service
	// refuses a resume without a recognizable reason.
	ErrResumeRejected = errors.New("session: resume rejected")
	// ErrMuxClosed reports a multiplexed exchange attempted on a dead
	// session.
	ErrMuxClosed = errors.New("session: multiplexed session closed")
	// ErrBadMuxFrame reports a decrypted mux frame too short for its
	// header or its trace context.
	ErrBadMuxFrame = errors.New("session: malformed mux frame")
)

// Reject codes carried in a resume-reject message. The mapping is
// deliberately coarse — enough for the client to decide between
// "re-dial cold" and "stop trusting this device", nothing more.
const (
	RejectGeneric uint8 = iota
	RejectTampered
	RejectExpired
	RejectReplayed
	RejectMeasurement
)

// RejectCode maps a server-side redeem failure to its wire code.
func RejectCode(err error) uint8 {
	switch {
	case errors.Is(err, ErrTicketTampered):
		return RejectTampered
	case errors.Is(err, ErrTicketExpired):
		return RejectExpired
	case errors.Is(err, ErrTicketReplayed):
		return RejectReplayed
	case errors.Is(err, ErrMeasurementChanged):
		return RejectMeasurement
	default:
		return RejectGeneric
	}
}

// RejectError maps a wire code back to the typed error, so both sides
// of the protocol fail with the same sentinel.
func RejectError(code uint8) error {
	switch code {
	case RejectTampered:
		return ErrTicketTampered
	case RejectExpired:
		return ErrTicketExpired
	case RejectReplayed:
		return ErrTicketReplayed
	case RejectMeasurement:
		return ErrMeasurementChanged
	default:
		return ErrResumeRejected
	}
}

// ClientTicket is the user-side resumption state: the opaque encrypted
// ticket to present, the locally derived PSK that proves possession,
// and the identity the session was attested against (consulted for
// revocation before a resume is attempted). The PSK is secret; Resume
// consumes it (zeroes it) whether or not the resume succeeds.
type ClientTicket struct {
	// Opaque is the service-sealed ticket, presented verbatim.
	Opaque []byte
	// PSK is the HKDF-derived resumption pre-shared key.
	PSK [32]byte
	// SessionID is the session the ticket was minted under.
	SessionID uint64
	// Serial and Measurement identify the attested device.
	Serial      string
	Measurement [32]byte
	// ExpiryEpoch is the last epoch the ticket is valid in.
	ExpiryEpoch uint64
}
