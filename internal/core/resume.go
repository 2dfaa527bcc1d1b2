package core

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"fmt"
	"io"

	"hardtape/internal/channel"
	"hardtape/internal/session"
)

// Warm handshake: a ticket redemption plus an AES-GCM rekey, no
// asymmetric crypto on either side.
//
//	user                                device
//	 │ MsgResumeRequest{ticket, cn}        │  plaintext
//	 │────────────────────────────────────►│  redeem ticket (GCM open)
//	 │                                     │  K' = HKDF(PSK, cn‖sn, sid')
//	 │ MsgResumeAccept{sid', sn, devTag}   │  plaintext (tag proves K')
//	 │◄────────────────────────────────────│
//	 │ MsgResumeConfirm{userTag}           │  sealed under K'
//	 │────────────────────────────────────►│  verify tag
//	 │ MsgTicketIssue{next ticket}         │  sealed under K'
//	 │◄────────────────────────────────────│  (rotation: old one is burned)
//	 │            bundle loop (mux)        │
//
// Mutual authentication comes from the PSK: only the endpoint that ran
// the original attested handshake can derive K', and the ticket binds
// the device identity + measurement the user originally verified. The
// confirm tags reuse channel.ConfirmTag (role-bound HMAC), so neither
// side's proof can be reflected back.
//
// Resumed channels never enable per-message ECDSA signatures: the
// bundle stream is authenticated by the PSK-bound AEAD, and keeping the
// warm path free of asymmetric operations is the subsystem's entire
// point. So a signing service mints no ticket (sendTicket), and every
// session with it dials cold.

// resumeRequestMsg presents a ticket. Plaintext: the ticket is opaque
// (STEK-sealed) and the nonce is public salt.
type resumeRequestMsg struct {
	Ticket      []byte
	ClientNonce [session.NonceSize]byte
}

// resumeAcceptMsg answers with the new session id, the server's rekey
// nonce, and the device's key-confirmation tag under the new traffic
// key — possession proof before the user sends anything sealed.
type resumeAcceptMsg struct {
	SessionID   uint64
	ServerNonce [session.NonceSize]byte
	Confirm     [channel.ConfirmTagSize]byte
}

// The resume reject is its one coarse code byte (session.Reject*), and
// the resume confirm is the user's confirmation tag, sealed under the
// traffic key it claims to hold.

// ticketIssueMsg delivers a (possibly rotated) resumption ticket at
// the end of a handshake. An empty Ticket means the service could not
// mint one; the session still works, it just cannot be resumed.
type ticketIssueMsg struct {
	Ticket      []byte
	ExpiryEpoch uint64
}

// warmHandshake runs the server side of the warm handshake. Every
// failure path is fail-closed: a typed reject goes back in plaintext
// (the client maps it to the same sentinel) and the connection dies.
func (s *Service) warmHandshake(conn io.ReadWriter, raw []byte) (*channel.SecureChannel, error) {
	hsp, _ := s.reg.StartSpan(context.Background(), "service.resume")
	req, err := decodePlain(raw, channel.MsgResumeRequest, decodeResumeRequest)
	if err != nil {
		return nil, err
	}

	st, err := s.redeemTicket(req.Ticket)
	if err != nil {
		code := session.RejectCode(err)
		s.tm.ticketsRejected[code].Inc()
		//hardtape:faulterr-ok the reject write is best-effort; the redeem failure is the error that matters
		_ = writePlain(conn, channel.MsgResumeReject, 0, []byte{code})
		return nil, err
	}
	defer session.ZeroKey(&st.PSK)
	s.tm.ticketsRedeemed.Inc()

	// A fresh session id: the ticket's PSK is bound to the old id, the
	// traffic key to the new one, so transcripts never collide.
	newID := s.sessionID.Add(1)
	var serverNonce [session.NonceSize]byte
	if _, err := rand.Read(serverNonce[:]); err != nil {
		return nil, fmt.Errorf("core: resume nonce: %w", err)
	}
	// The traffic key lives exactly as long as this handshake, whichever
	// way it ends; the channel and the next ticket hold what they derived.
	traffic := session.TrafficKey(st.PSK, req.ClientNonce, serverNonce, newID)
	defer session.ZeroKey(&traffic)

	devTag := channel.ConfirmTag(traffic, newID, "device")
	accept := resumeAcceptMsg{SessionID: newID, ServerNonce: serverNonce, Confirm: devTag}
	if err := writePlain(conn, channel.MsgResumeAccept, newID, appendResumeAccept(nil, &accept)); err != nil {
		return nil, err
	}

	secure, err := channel.NewSecureChannel(traffic, newID)
	if err != nil {
		return nil, err
	}
	userTag, err := readSealed(conn, secure, channel.MsgResumeConfirm, decodeFixed32)
	if err != nil {
		return nil, err
	}
	if err := channel.VerifyConfirmTag(traffic, newID, "user", userTag[:]); err != nil {
		return nil, err
	}

	// Rotate: derive the next PSK from the traffic key and mint the
	// successor ticket before any bundles flow.
	nextPSK := session.ResumptionPSK(traffic, newID)
	defer session.ZeroKey(&nextPSK)
	if err := s.sendTicket(conn, secure, nextPSK, newID); err != nil {
		return nil, err
	}

	hsp.End(s.tm.resume, nil)
	s.tm.handshakesWarm.Inc()
	return secure, nil
}

// redeemTicket consumes a wire ticket and checks it against the booted
// identity: a ticket minted for a different image measurement (the
// device re-flashed since issue) fails closed.
func (s *Service) redeemTicket(wire []byte) (*session.State, error) {
	if s.issuer == nil {
		return nil, session.ErrResumeRejected
	}
	st, err := s.issuer.Redeem(wire)
	if err != nil {
		return nil, err
	}
	measurement := s.booted.Measurement()
	ok := subtle.ConstantTimeCompare(st.Measurement[:], measurement[:]) == 1
	if st.Serial != s.booted.Serial() || !ok {
		session.ZeroKey(&st.PSK)
		return nil, session.ErrMeasurementChanged
	}
	return st, nil
}

// Resume re-establishes a session from a ticket with zero asymmetric
// crypto. The ticket is consumed (its PSK zeroed) whether or not the
// resume succeeds — on failure the caller re-dials cold. Typed errors
// (session.ErrTicket*, session.ErrMeasurementChanged) say why.
func Resume(conn io.ReadWriter, ticket *session.ClientTicket) (*Client, error) {
	if ticket == nil || len(ticket.Opaque) == 0 {
		return nil, session.ErrResumeRejected
	}
	defer session.ZeroKey(&ticket.PSK)

	var clientNonce [session.NonceSize]byte
	if _, err := rand.Read(clientNonce[:]); err != nil {
		return nil, fmt.Errorf("core: resume nonce: %w", err)
	}
	req := resumeRequestMsg{Ticket: ticket.Opaque, ClientNonce: clientNonce}
	if err := writePlain(conn, channel.MsgResumeRequest, ticket.SessionID, appendResumeRequest(nil, &req)); err != nil {
		return nil, err
	}

	raw, err := channel.ReadMessage(conn)
	if err != nil {
		return nil, err
	}
	if len(raw) >= channel.HeaderSize {
		if hdr, err := channel.ParseHeader(raw[:channel.HeaderSize]); err == nil && hdr.Type == channel.MsgResumeReject {
			//hardtape:faulterr-ok an undecodable reject still rejects; the code only refines the sentinel
			code, _ := decodePlain(raw, channel.MsgResumeReject, decodeResumeReject)
			return nil, session.RejectError(code)
		}
	}
	accept, err := decodePlain(raw, channel.MsgResumeAccept, decodeResumeAccept)
	if err != nil {
		return nil, err
	}

	// The traffic key lives exactly as long as this handshake, whichever
	// way it ends; the channel and the next ticket hold what they derived.
	traffic := session.TrafficKey(ticket.PSK, clientNonce, accept.ServerNonce, accept.SessionID)
	defer session.ZeroKey(&traffic)
	// The device's tag proves it redeemed the ticket and derived the
	// same traffic key — without it, anyone could echo our nonce.
	if err := channel.VerifyConfirmTag(traffic, accept.SessionID, "device", accept.Confirm[:]); err != nil {
		return nil, fmt.Errorf("%w: %w", session.ErrResumeRejected, err)
	}
	secure, err := channel.NewSecureChannel(traffic, accept.SessionID)
	if err != nil {
		return nil, err
	}
	userTag := channel.ConfirmTag(traffic, accept.SessionID, "user")
	sealed, err := secure.Seal(channel.MsgResumeConfirm, userTag[:])
	if err != nil {
		return nil, err
	}
	if err := channel.WriteMessage(conn, sealed); err != nil {
		return nil, err
	}

	// Collect the rotated ticket; its PSK ratchets from the traffic key.
	nextPSK := session.ResumptionPSK(traffic, accept.SessionID)
	defer session.ZeroKey(&nextPSK)
	next, err := readTicket(conn, secure, nextPSK, accept.SessionID, ticket.Serial, ticket.Measurement)
	if err != nil {
		return nil, err
	}

	c := &Client{session: accept.SessionID, warm: true, ticket: next}
	c.mux = session.NewMux(readWriteCloser{conn}, secure)
	return c, nil
}
