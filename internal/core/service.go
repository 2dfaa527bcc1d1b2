package core

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/channel"
	"hardtape/internal/session"
	"hardtape/internal/telemetry"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
)

// Wire messages; wire.go holds their layouts. A message of one field is
// that field: the attest request is the user's nonce, a bundle
// submission is the types.Bundle.

// attestReportMsg carries the device's report plus the session id the
// Hypervisor allocated.
type attestReportMsg struct {
	Report    attest.Report
	SessionID uint64
	// DevSigPub is the Hypervisor's per-session ECDSA public key
	// (uncompressed), used when signatures are enabled. It is outside
	// the signed report; the user's confirm tag binds it instead.
	DevSigPub []byte
}

// keyExchangeMsg completes DHKE. The exchange itself is plaintext, so
// Confirm carries the user's key-confirmation tag: an HMAC under the
// derived session key that the Hypervisor verifies before opening the
// bundle loop. The tag also covers DevSigPub as the user received it
// and UserSigPub, so a signing key swapped on either plaintext leg is
// caught too. A tampered exchange is rejected here, explicitly,
// instead of surfacing later as an unattributable AEAD failure.
type keyExchangeMsg struct {
	SessionID  uint64
	UserPub    []byte
	UserSigPub []byte
	Confirm    [channel.ConfirmTagSize]byte
}

// traceMsg is the encrypted response.
type traceMsg struct {
	Trace       tracer.BundleTrace
	VirtualTime time.Duration
	AbortReason string
	// Failed marks AbortReason as an execution error (no trace exists:
	// an invalid transaction, an executor fault) rather than a hardware
	// abort of a bundle that did run.
	Failed  bool
	GasUsed uint64
	// TraceSpans carries this process's finished distributed-tracing
	// spans for the request's trace back to the caller, which adopts
	// them into its flight recorder — one contiguous tree per request
	// no matter how many processes served it. Empty when the request
	// was untraced.
	TraceSpans []telemetry.SpanRecord
}

// wireTraceContext converts a span context to its channel encoding.
func wireTraceContext(sc telemetry.SpanContext) channel.TraceContext {
	return channel.TraceContext{Trace: [16]byte(sc.Trace), Span: [8]byte(sc.Span)}
}

// spanCtxFromWire converts a received wire context back.
func spanCtxFromWire(tc channel.TraceContext) telemetry.SpanContext {
	return telemetry.SpanContext{Trace: telemetry.TraceID(tc.Trace), Span: telemetry.SpanID(tc.Span)}
}

// statusMsg is the occupancy-probe response (the request is empty).
type statusMsg struct {
	FreeSlots int
	Capacity  int
}

// Service errors.
var (
	ErrProtocol = errors.New("core: protocol violation")
)

// BundleExecutor is what a Service fronts: one Device, or a fleet
// gateway pooling many of them. ExecuteContext must be safe for
// concurrent sessions; FreeSlots/SlotCount feed the MuxStatus
// occupancy probe.
type BundleExecutor interface {
	ExecuteContext(ctx context.Context, bundle *types.Bundle) (*BundleResult, error)
	FreeSlots() int
	SlotCount() int
}

// Service exposes a BundleExecutor over the message protocol. One
// goroutine per connection; sessions are independent.
type Service struct {
	exec      BundleExecutor
	booted    *attest.BootedDevice
	sign      bool
	sessionID atomic.Uint64
	// issuer mints and redeems resumption tickets; nil only if STEK
	// generation failed, in which case cold handshakes still work and
	// every resume is rejected.
	issuer *session.TicketIssuer
	// admission gates cold handshakes; nil admits everything. Warm
	// resumes bypass it by design.
	admission *session.Admission
	// tm is always non-nil (nil instruments when disabled).
	tm *svcMetrics
	// reg is the telemetry registry (nil when disabled); every span the
	// service starts comes from it.
	reg *telemetry.Registry
}

// NewService wraps a device, inheriting its telemetry registry.
func NewService(dev *Device) *Service {
	s := NewServiceFor(dev, dev.Booted(), dev.cfg.Features.Sign)
	s.SetTelemetry(dev.cfg.Telemetry)
	return s
}

// NewServiceFor wraps any executor with an attestation identity. The
// fleet gateway uses this: it terminates user sessions with one booted
// identity and fans bundles out to the pool behind it.
func NewServiceFor(exec BundleExecutor, booted *attest.BootedDevice, sign bool) *Service {
	//hardtape:faulterr-ok a failed STEK draw degrades to issuer==nil: cold handshakes work, every resume is rejected (fail-safe)
	issuer, _ := session.NewTicketIssuer(nil, 0)
	return &Service{exec: exec, booted: booted, sign: sign, issuer: issuer, tm: newSvcMetrics(nil)}
}

// SetTelemetry registers the service's series on reg (nil disables).
// Call before serving connections.
func (s *Service) SetTelemetry(reg *telemetry.Registry) {
	s.tm = newSvcMetrics(reg)
	s.reg = reg
}

// SetSessionPolicy replaces the ticket issuer (clock + lifetime in
// expiry epochs; zero lifetime keeps the default) and the cold-
// handshake admission gate. Call before serving connections. Replacing
// the issuer invalidates previously issued tickets — exactly what a
// STEK rotation does.
func (s *Service) SetSessionPolicy(clock session.Clock, lifetimeEpochs int, adm *session.Admission) error {
	issuer, err := session.NewTicketIssuer(clock, lifetimeEpochs)
	if err != nil {
		return err
	}
	s.issuer = issuer
	s.admission = adm
	return nil
}

// SetAdmission installs a cold-handshake gate without rotating the
// ticket issuer. Call before serving connections.
func (s *Service) SetAdmission(adm *session.Admission) { s.admission = adm }

// ServeListener accepts and serves connections until the listener
// closes. It returns the first accept error (net.ErrClosed on normal
// shutdown).
func (s *Service) ServeListener(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			//hardtape:faulterr-ok a session failure ends that session only; the accept loop must survive it
			_ = s.ServeConn(conn)
		}()
	}
}

// handshakeTimeout bounds one connection's handshake, from its first
// message through the ticket the service sends last, so a peer that
// stalls mid-handshake cannot hold a goroutine — or a cold-admission
// slot — for good. A var so tests can shorten it.
var handshakeTimeout = 10 * time.Second

// ServeConn runs one user session over a stream: the handshake, then
// the shared session loop. On a stream with SetDeadline (every
// net.Conn) the handshake runs under handshakeTimeout; the session loop
// after it is unbounded, as bundle sessions are long-lived.
func (s *Service) ServeConn(conn io.ReadWriter) error {
	s.tm.sessions.Inc()
	if err := setDeadline(conn, time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	secure, err := s.handshake(conn)
	if err != nil {
		return err
	}
	if err := setDeadline(conn, time.Time{}); err != nil {
		return err
	}
	return s.serveSession(conn, secure)
}

// handshake reads the first message, which decides the path:
// MsgAttestRequest opens the full cold handshake (steps 2–10),
// MsgResumeRequest redeems a ticket and rekeys without touching
// asymmetric crypto.
func (s *Service) handshake(conn io.ReadWriter) (*channel.SecureChannel, error) {
	raw, err := channel.ReadMessage(conn)
	if err != nil {
		return nil, err
	}
	if len(raw) >= channel.HeaderSize {
		if hdr, err := channel.ParseHeader(raw[:channel.HeaderSize]); err == nil && hdr.Type == channel.MsgResumeRequest {
			return s.warmHandshake(conn, raw)
		}
	}
	return s.coldHandshake(conn, raw)
}

// setDeadline sets conn's I/O deadline when the stream has one (every
// net.Conn does); other io.ReadWriters run unbounded.
func setDeadline(conn io.ReadWriter, t time.Time) error {
	if dc, ok := conn.(interface{ SetDeadline(time.Time) error }); ok {
		return dc.SetDeadline(t)
	}
	return nil
}

// coldHandshake performs the full attest + DHKE handshake (steps 2–10)
// and mints the session's first resumption ticket.
func (s *Service) coldHandshake(conn io.ReadWriter, raw []byte) (*channel.SecureChannel, error) {
	// Cold handshakes are the expensive path; the admission gate bounds
	// how many run at once so resumes and live bundles are not starved.
	// The slot is held for the handshake only — a session that stays
	// open afterwards must not keep later cold dials out.
	asp, _ := s.reg.StartSpan(context.Background(), "service.admission_wait")
	s.admission.Acquire()
	defer s.admission.Release()
	asp.End(s.tm.admissionWait, nil)

	// --- Step 2: remote attestation + DHKE ---
	hsp, _ := s.reg.StartSpan(context.Background(), "service.handshake")
	nonce, err := decodePlain(raw, channel.MsgAttestRequest, decodeFixed32)
	if err != nil {
		return nil, err
	}

	report, complete, err := s.booted.Attest(nonce)
	if err != nil {
		return nil, err
	}
	sessionID := s.sessionID.Add(1)

	devSigKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("core: session sig key: %w", err)
	}
	attest.RecordAsymOps(1) // per-session device signing key
	resp := attestReportMsg{
		Report:    *report,
		SessionID: sessionID,
		DevSigPub: elliptic.Marshal(elliptic.P256(), devSigKey.PublicKey.X, devSigKey.PublicKey.Y),
	}
	if err := writePlain(conn, channel.MsgAttestReport, sessionID, appendAttestReport(nil, &resp)); err != nil {
		return nil, err
	}
	hsp.Mark(s.tm.attest)

	kx, err := readPlain(conn, channel.MsgKeyExchange, decodeKeyExchange)
	if err != nil {
		return nil, err
	}
	sess, err := complete(kx.UserPub)
	if err != nil {
		return nil, err
	}
	// The DHKE key lives exactly as long as this handshake, whichever
	// way it ends; the channel and the ticket hold what they derived.
	defer session.ZeroKey(&sess.Key)
	// The tag covers both signing keys as the user saw them: a DevSigPub
	// swapped on the way out, or a UserSigPub swapped on the way in,
	// fails here, before any sealed frame.
	if err := channel.VerifyConfirmTag(sess.Key, sessionID, "user", kx.Confirm[:], resp.DevSigPub, kx.UserSigPub); err != nil {
		return nil, err
	}
	secure, err := channel.NewSecureChannel(sess.Key, sessionID)
	if err != nil {
		return nil, err
	}
	if s.sign {
		userPub, err := unmarshalPub(kx.UserSigPub)
		if err != nil {
			return nil, err
		}
		secure.EnableSigning(devSigKey, userPub)
	}
	hsp.Mark(s.tm.dhke)
	s.tm.handshakesCold.Inc()

	// Mint the session's first resumption ticket: the PSK is derived
	// from the session key (the user derives the same one on its side),
	// bound to this device's identity and booted measurement.
	psk := session.ResumptionPSK(sess.Key, sessionID)
	defer session.ZeroKey(&psk)
	if err := s.sendTicket(conn, secure, psk, sessionID); err != nil {
		return nil, err
	}
	return secure, nil
}

// sendTicket seals the rotated resumption ticket into the freshly
// established channel, before any mux reply can share it. The PSK is
// consumed: sealed into the ticket and zeroed. A signing service mints
// no ticket: a resumed channel never signs, so a ticket would let a
// client drop the -ES layer the service was deployed with.
func (s *Service) sendTicket(conn io.ReadWriter, secure *channel.SecureChannel, psk [32]byte, sessionID uint64) error {
	defer session.ZeroKey(&psk)
	var out ticketIssueMsg
	if s.issuer != nil && !s.sign {
		st := &session.State{
			SessionID:   sessionID,
			PSK:         psk,
			Serial:      s.booted.Serial(),
			Measurement: s.booted.Measurement(),
		}
		wire, err := s.issuer.Issue(st)
		session.ZeroKey(&st.PSK)
		if err == nil {
			out.Ticket = wire
			out.ExpiryEpoch = st.ExpiryEpoch
			s.tm.ticketsIssued.Inc()
		}
		// On issue failure the message carries no ticket; the client
		// simply cannot resume — fail-safe, not fail-open.
	}
	sealed, err := secure.Seal(channel.MsgTicketIssue, appendTicketIssue(nil, &out))
	if err != nil {
		return err
	}
	return channel.WriteMessage(conn, sealed)
}

// serveSession is the shared post-handshake loop for cold and resumed
// sessions: multiplexed exchanges (MsgMux) execute concurrently and
// reply out of order by request id; any other message type is a
// protocol violation. All Opens happen on this goroutine (the channel's
// receive sequence demands it); Seals are serialized by wmu.
func (s *Service) serveSession(conn io.ReadWriter, secure *channel.SecureChannel) error {
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	defer wg.Wait()
	reply := func(reqID uint64, status byte, body []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		sealed, err := secure.Seal(channel.MsgMuxReply, session.EncodeMuxFrame(reqID, status, channel.TraceContext{}, body))
		if err != nil {
			return err
		}
		if err := channel.WriteMessage(conn, sealed); err != nil {
			return err
		}
		s.tm.bytesOut.Observe(float64(len(sealed)))
		return nil
	}
	for {
		raw, err := channel.ReadMessage(conn)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		hdr, payload, err := secure.Open(raw)
		if err != nil {
			return err
		}
		if hdr.Type != channel.MsgMux {
			return fmt.Errorf("%w: expected mux frame, got %d", ErrProtocol, hdr.Type)
		}
		reqID, kind, tc, body, err := session.ParseMuxFrame(payload)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		switch kind {
		case session.MuxStatus:
			out := statusMsg{FreeSlots: s.exec.FreeSlots(), Capacity: s.exec.SlotCount()}
			if err := reply(reqID, session.MuxOK, appendStatus(nil, &out)); err != nil {
				return err
			}
		case session.MuxBundle:
			s.tm.bytesIn.Observe(float64(len(raw)))
			bundle, err := decodeBundle(body)
			if err != nil {
				if werr := reply(reqID, session.MuxErr, []byte(err.Error())); werr != nil {
					return werr
				}
				continue
			}
			// Interleaving is the point of the mux: the bundle runs on
			// its own goroutine while this loop keeps reading, so many
			// bundles share the connection and the executor's slots.
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := s.executeBundle(tc, bundle)
				err := reply(reqID, session.MuxOK, appendTrace(nil, &out))
				if errors.Is(err, channel.ErrTooLarge) {
					// A trace too large for one sealed frame is the
					// bundle's fault, answered as one, so the caller
					// does not wait for a reply that never comes.
					out = traceMsg{
						AbortReason: fmt.Sprintf("core: trace reply exceeds the %d-byte frame limit", channel.MaxPayload),
						Failed:      true,
						TraceSpans:  out.TraceSpans,
					}
					err = reply(reqID, session.MuxOK, appendTrace(nil, &out))
				}
				//hardtape:faulterr-ok a write race with connection teardown fails the conn, which the read loop reports
				_ = err
			}()
		default:
			return fmt.Errorf("%w: mux kind %d", ErrProtocol, kind)
		}
	}
}

// executeBundle runs one decoded bundle under its "service.bundle" span
// and shapes the trace reply. A traced frame (tc valid) parents this
// process's spans under the caller's; the finished records travel back
// in the reply. An untraced frame roots a NEW trace here, kept by the
// local flight recorder — so a -trace server is useful even when its
// clients don't propagate contexts. The two cases compose: a locally
// rooted trace assembles into the local ring when its root ends, and
// TakeSpans then finds nothing left to ship.
func (s *Service) executeBundle(tc channel.TraceContext, bundle *types.Bundle) traceMsg {
	ctx := s.reg.ContinueTrace(context.Background(), spanCtxFromWire(tc))
	sp, ctx := s.reg.StartSpan(ctx, "service.bundle")
	res, err := s.exec.ExecuteContext(ctx, bundle)
	sp.End(s.tm.execute, &err)
	var out traceMsg
	if err != nil {
		out.AbortReason = err.Error()
		out.Failed = true
		s.tm.bundlesErr.Inc()
	} else {
		out.Trace = *res.Trace
		out.VirtualTime = res.VirtualTime
		out.GasUsed = res.GasUsed
		if res.Aborted != nil {
			out.AbortReason = res.Aborted.Error()
		}
		s.tm.bundlesOK.Inc()
	}
	out.TraceSpans = s.reg.FlightRecorder().TakeSpans(sp.Context().Trace)
	return out
}

// ReportVerifier is what Dial needs from the user side of attestation.
// *attest.Verifier is the one implementation; tests substitute fakes
// through it.
type ReportVerifier interface {
	NewNonce() ([32]byte, error)
	Verify(report *attest.Report, nonce [32]byte) (*attest.Session, []byte, error)
}

// Client is the user side of the pre-execution service: it attests the
// device (or resumes a prior session), establishes the secure channel,
// and submits bundles over a multiplexed connection.
type Client struct {
	mux     *session.Mux
	session uint64
	// warm reports whether this client skipped asymmetric crypto
	// (ticket resumption) rather than attesting from scratch.
	warm bool
	// reg, when set, roots a distributed trace per PreExecute (or
	// continues the caller's via PreExecuteContext) and adopts the
	// remote spans the service returns.
	reg *telemetry.Registry

	tmu    sync.Mutex
	ticket *session.ClientTicket
}

// UseTracer turns on distributed tracing for this client's requests
// (nil disables). Usually reg.Tracer() for the process registry.
func (c *Client) UseTracer(tr *telemetry.Tracer) { c.reg = tr.Registry() }

// readWriteCloser adapts the io.ReadWriter handshake streams (net.Pipe
// halves in tests, net.Conn in production) to the mux's closer needs.
type readWriteCloser struct{ io.ReadWriter }

func (rw readWriteCloser) Close() error {
	if c, ok := rw.ReadWriter.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Dial attests a service over an established stream. The verifier must
// pin the manufacturer key and the expected Hypervisor measurement;
// sign toggles the -ES signature layer and must match the service.
func Dial(conn io.ReadWriter, verifier ReportVerifier, sign bool) (*Client, error) {
	nonce, err := verifier.NewNonce()
	if err != nil {
		return nil, err
	}
	if err := writePlain(conn, channel.MsgAttestRequest, 0, nonce[:]); err != nil {
		return nil, err
	}
	rep, err := readPlain(conn, channel.MsgAttestReport, decodeAttestReport)
	if err != nil {
		return nil, err
	}
	sess, userPub, err := verifier.Verify(&rep.Report, nonce)
	if err != nil {
		return nil, fmt.Errorf("core: attestation failed: %w", err)
	}
	// The DHKE key lives exactly as long as this handshake, whichever
	// way it ends; the channel and the ticket hold what they derived.
	defer session.ZeroKey(&sess.Key)

	userSigKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	attest.RecordAsymOps(1) // per-session user signing key
	userSigPub := elliptic.Marshal(elliptic.P256(), userSigKey.PublicKey.X, userSigKey.PublicKey.Y)
	confirm := channel.ConfirmTag(sess.Key, rep.SessionID, "user", rep.DevSigPub, userSigPub)
	kx := keyExchangeMsg{
		SessionID:  rep.SessionID,
		UserPub:    userPub,
		UserSigPub: userSigPub,
		Confirm:    confirm,
	}
	if err := writePlain(conn, channel.MsgKeyExchange, rep.SessionID, appendKeyExchange(nil, &kx)); err != nil {
		return nil, err
	}

	secure, err := channel.NewSecureChannel(sess.Key, rep.SessionID)
	if err != nil {
		return nil, err
	}
	if sign {
		devPub, err := unmarshalPub(rep.DevSigPub)
		if err != nil {
			return nil, err
		}
		secure.EnableSigning(userSigKey, devPub)
	}

	// Derive the resumption PSK from the same session key the service
	// used, then collect the sealed ticket it minted.
	psk := session.ResumptionPSK(sess.Key, rep.SessionID)
	defer session.ZeroKey(&psk)
	ticket, err := readTicket(conn, secure, psk, rep.SessionID,
		rep.Report.Cert.Serial, rep.Report.Measurement)
	if err != nil {
		return nil, err
	}

	c := &Client{session: rep.SessionID, ticket: ticket}
	c.mux = session.NewMux(readWriteCloser{conn}, secure)
	return c, nil
}

// readTicket consumes the MsgTicketIssue the service sends at the end
// of every handshake, pairing the opaque wire ticket with the locally
// derived PSK. A service that could not mint (nil ticket) leaves the
// client un-resumable but otherwise functional; the PSK is zeroed.
func readTicket(conn io.ReadWriter, secure *channel.SecureChannel, psk [32]byte, sessionID uint64, serial string, measurement [32]byte) (*session.ClientTicket, error) {
	defer session.ZeroKey(&psk)
	tim, err := readSealed(conn, secure, channel.MsgTicketIssue, decodeTicketIssue)
	if err != nil || len(tim.Ticket) == 0 {
		return nil, err
	}
	return &session.ClientTicket{
		Opaque:      tim.Ticket,
		PSK:         psk,
		SessionID:   sessionID,
		Serial:      serial,
		Measurement: measurement,
		ExpiryEpoch: tim.ExpiryEpoch,
	}, nil
}

// Ticket detaches the client's current resumption ticket (single-use;
// nil if the service issued none or it was already taken). The caller
// owns the ticket's PSK from here — Resume consumes and zeroes it.
func (c *Client) Ticket() *session.ClientTicket {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	t := c.ticket
	c.ticket = nil
	return t
}

// Warm reports whether this session was resumed from a ticket rather
// than attested from scratch.
func (c *Client) Warm() bool { return c.warm }

// SessionID returns the wire session id.
func (c *Client) SessionID() uint64 { return c.session }

// Close tears down the multiplexed session.
func (c *Client) Close() error { return c.mux.Close() }

// PreExecute submits a bundle and waits for its trace. Safe for
// concurrent use: bundles interleave on the multiplexed connection.
func (c *Client) PreExecute(bundle *types.Bundle) (*TraceResult, error) {
	return c.PreExecuteContext(context.Background(), bundle)
}

// PreExecuteContext is PreExecute carrying the caller's context: when
// tracing is on, the submission span parents under any span context
// in ctx (a gateway forwarding a traced request) or roots a fresh
// trace, propagates over the wire, and the remote spans returned in
// the reply are adopted into the local flight recorder. When ctx ends
// before the reply, it returns ctx.Err() and the session stays usable.
func (c *Client) PreExecuteContext(ctx context.Context, bundle *types.Bundle) (res *TraceResult, err error) {
	sp, _ := c.reg.StartSpan(c.reg.ContinueTrace(ctx, telemetry.SpanContext{}), "client.preexecute")
	sp.AddInt("txs", int64(len(bundle.Txs)))
	defer sp.End(nil, &err)
	body, err := c.mux.RoundTrip(ctx, session.MuxBundle, wireTraceContext(sp.Context()), appendBundle(nil, bundle))
	if err != nil {
		return nil, err
	}
	tm, err := decodeTrace(body)
	if err != nil {
		return nil, err
	}
	c.reg.FlightRecorder().Adopt(tm.TraceSpans)
	return &TraceResult{
		Trace:       &tm.Trace,
		VirtualTime: tm.VirtualTime,
		AbortReason: tm.AbortReason,
		Failed:      tm.Failed,
		GasUsed:     tm.GasUsed,
	}, nil
}

// TraceResult is the client-side view of a pre-execution response.
// AbortReason is non-empty when the bundle did not complete: with
// Failed set the executor returned an error and there is no trace,
// otherwise the hardware aborted a running bundle (Memory Overflow).
type TraceResult struct {
	Trace       *tracer.BundleTrace
	VirtualTime time.Duration
	AbortReason string
	Failed      bool
	GasUsed     uint64
}

// ServiceStatus is the client-side view of an occupancy probe.
type ServiceStatus struct {
	// FreeSlots is the number of idle HEVM cores behind the service.
	FreeSlots int
	// Capacity is the total core count.
	Capacity int
}

// Status probes the service's live occupancy over the established
// session, giving up when ctx ends. Schedulers (the fleet gateway) use
// it both as a health check and to weight dispatch by free capacity.
func (c *Client) Status(ctx context.Context) (*ServiceStatus, error) {
	body, err := c.mux.RoundTrip(ctx, session.MuxStatus, channel.TraceContext{}, nil)
	if err != nil {
		return nil, err
	}
	sm, err := decodeStatus(body)
	if err != nil {
		return nil, err
	}
	return &ServiceStatus{FreeSlots: sm.FreeSlots, Capacity: sm.Capacity}, nil
}

// --- plumbing ---

// writePlain frames an unencrypted protocol message (pre-session).
func writePlain(w io.Writer, t channel.MsgType, session uint64, payload []byte) error {
	h := channel.Header{Type: t, Session: session, Length: uint32(len(payload))}
	hdr := h.Marshal()
	msg := append(hdr[:], payload...)
	return channel.WriteMessage(w, msg)
}

// decodePlain validates an unencrypted protocol message of type want
// and decodes its payload.
func decodePlain[T any](raw []byte, want channel.MsgType, decode func([]byte) (T, error)) (v T, err error) {
	if len(raw) < channel.HeaderSize {
		return v, channel.ErrBadHeader
	}
	hdr, err := channel.ParseHeader(raw[:channel.HeaderSize])
	if err != nil {
		return v, err
	}
	if hdr.Type != want {
		return v, fmt.Errorf("%w: expected type %d, got %d", ErrProtocol, want, hdr.Type)
	}
	body := raw[channel.HeaderSize:]
	if uint32(len(body)) != hdr.Length {
		return v, channel.ErrBadHeader
	}
	return decode(body)
}

// readPlain reads the next message off r as an unencrypted message of
// type want (pre-session).
func readPlain[T any](r io.Reader, want channel.MsgType, decode func([]byte) (T, error)) (v T, err error) {
	raw, err := channel.ReadMessage(r)
	if err != nil {
		return v, err
	}
	return decodePlain(raw, want, decode)
}

// readSealed reads the next message off r, opens it on the established
// channel and decodes it as a message of type want.
func readSealed[T any](r io.Reader, secure *channel.SecureChannel, want channel.MsgType, decode func([]byte) (T, error)) (v T, err error) {
	raw, err := channel.ReadMessage(r)
	if err != nil {
		return v, err
	}
	hdr, payload, err := secure.Open(raw)
	if err != nil {
		return v, err
	}
	if hdr.Type != want {
		return v, fmt.Errorf("%w: expected type %d, got %d", ErrProtocol, want, hdr.Type)
	}
	return decode(payload)
}

func unmarshalPub(raw []byte) (*ecdsa.PublicKey, error) {
	x, y := elliptic.Unmarshal(elliptic.P256(), raw)
	if x == nil {
		return nil, fmt.Errorf("%w: bad public key", ErrProtocol)
	}
	return &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}, nil
}

// ImageMeasurement returns the hash users pin for attestation.
func ImageMeasurement() [32]byte {
	return sha256.Sum256(HypervisorImage)
}
