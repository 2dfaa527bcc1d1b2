package bench

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/core"
	"hardtape/internal/fleet"
	"hardtape/internal/session"
	"hardtape/internal/simclock"
)

// sessionRig is a service over an unsigned device (resume forbids the
// per-message ECDSA layer) with its own manufacturer so the verifier
// can pin a root of trust.
type sessionRig struct {
	dev *core.Device
	svc *core.Service
	vrf *attest.Verifier
}

func newSessionRig(env *Env) (*sessionRig, error) {
	mfr, err := attest.NewManufacturer()
	if err != nil {
		return nil, err
	}
	dcfg := core.DefaultConfig()
	dcfg.Features = core.ConfigE
	dev, err := env.newDevice(dcfg, mfr)
	if err != nil {
		return nil, err
	}
	return &sessionRig{
		dev: dev,
		svc: core.NewService(dev),
		vrf: attest.NewVerifier(mfr.PublicKey(), core.ImageMeasurement()),
	}, nil
}

// servePipe has svc answer one in-process connection in the background
// and returns the client end; the session ends when that end closes.
func servePipe(svc *core.Service) net.Conn {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_ = svc.ServeConn(server)
	}()
	return client
}

// sessions sweeps n cold dials and n warm resumes against one service:
// the wall-clock and asymmetric-operation cost of a full attested dial
// against a ticket resume, plus the simclock-modeled hardware costs
// (the software ECDSA on the A53 dominates the real device's cold dial;
// our host CPU hides it, so both views are reported).
func sessions(env *Env, n int) (Table, error) {
	t := Table{
		Name:  "sessions",
		Title: "sessions — cold dial vs ticket resume",
		Note: "device_cost is the simclock calibration: cold pays the A53 ECDSA+DHKE, warm only A.E.DMA;\n" +
			"asym_ops is per handshake; speedup is the cold dial's wall_mean over the row's",
	}
	if n < 2 {
		n = 2
	}
	sr, err := newSessionRig(env)
	if err != nil {
		return t, err
	}

	// Each sweep times n handshakes; every handshake harvests the ticket
	// the next resume presents, so the last cold dial seeds the warm
	// chain and each resume consumes its predecessor's rotated successor
	// — the chain the real client lives on.
	var ticket *session.ClientTicket
	sweep := func(kind string, handshake func(net.Conn) (*core.Client, error)) ([]time.Duration, uint64, error) {
		times := make([]time.Duration, 0, n)
		before := attest.AsymOps()
		for i := 0; i < n; i++ {
			conn := servePipe(sr.svc)
			start := time.Now()
			c, err := handshake(conn)
			if err != nil {
				return nil, 0, fmt.Errorf("bench: %s %d: %w", kind, i, err)
			}
			times = append(times, time.Since(start))
			ticket = c.Ticket()
			c.Close()
			conn.Close()
			if ticket == nil {
				return nil, 0, fmt.Errorf("bench: %s %d minted no ticket", kind, i)
			}
		}
		return times, attest.AsymOps() - before, nil
	}
	coldTimes, coldOps, err := sweep("cold dial", func(conn net.Conn) (*core.Client, error) {
		return core.Dial(conn, sr.vrf, false)
	})
	if err != nil {
		return t, err
	}
	ticketBytes := len(ticket.Opaque)
	warmTimes, warmOps, err := sweep("warm resume", func(conn net.Conn) (*core.Client, error) {
		return core.Resume(conn, ticket)
	})
	if err != nil {
		return t, err
	}

	cal := simclock.DefaultCalibration()
	coldMean, _, coldP95 := durStats(coldTimes)
	warmMean, _, warmP95 := durStats(warmTimes)
	row := func(name string, cost time.Duration, ops uint64, mean, p95 time.Duration) Row {
		return Row{
			Name:   name,
			Params: []Field{count("handshakes", n)},
			Modeled: []Field{
				ns("device_cost", cost), count("asym_ops", ops/uint64(n)), num("ticket", "B", ticketBytes),
			},
			Measured: []Field{
				ns("wall_mean", mean), ns("wall_p95", p95), num("speedup", "x", float64(coldMean)/float64(mean)),
			},
		}
	}
	t.Rows = []Row{
		row("cold", cal.ColdHandshakeCost(), coldOps, coldMean, coldP95),
		row("warm", cal.WarmResumeCost(ticketBytes), warmOps, warmMean, warmP95),
	}
	return t, nil
}

// sessionScale is the gateway resume-stampede benchmark: many clients
// resuming against one fleet service at once, the worst case a
// restarted gateway faces when its whole user population reconnects.
// It mints `sessions` resumable tickets directly from the service's
// issuer (standing in for that many previously attested users) and
// replays them concurrently against a fleet gateway.
func sessionScale(env *Env, sessions int) (Table, error) {
	const workers = 64
	t := Table{
		Name:  "session_scale",
		Title: "sessions — gateway resume stampede",
		Note:  "asym_ops must be 0; admission_waits counts cold-gate queue events — resumes bypass the gate",
	}
	sr, err := newSessionRig(env)
	if err != nil {
		return t, err
	}
	dev := sr.dev
	gcfg := fleet.DefaultConfig()
	gcfg.ColdHandshakeLimit = 4
	gw := fleet.NewGateway(gcfg, fleet.NewLocalBackend("bench-0", dev))
	defer gw.Close()
	svc := core.NewServiceFor(gw, dev.Booted(), false)
	svc.SetAdmission(gw.SessionAdmission())

	issuer := svc.SessionIssuer()
	serial := dev.Booted().Serial()
	measurement := core.ImageMeasurement()
	tickets := make([]*session.ClientTicket, sessions)
	for i := range tickets {
		st := &session.State{
			// High ids keep minted sessions clear of the ones the service
			// allocates live.
			SessionID:   uint64(1_000_000 + i),
			Serial:      serial,
			Measurement: measurement,
		}
		if _, err := rand.Read(st.PSK[:]); err != nil {
			return t, err
		}
		wire, err := issuer.Issue(st)
		if err != nil {
			return t, err
		}
		tickets[i] = &session.ClientTicket{
			Opaque: wire, PSK: st.PSK, SessionID: st.SessionID,
			Serial: st.Serial, Measurement: st.Measurement, ExpiryEpoch: st.ExpiryEpoch,
		}
	}

	before := attest.AsymOps()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	next := make(chan *session.ClientTicket, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ticket := range next {
				client := servePipe(svc)
				c, err := core.Resume(client, ticket)
				if err != nil {
					client.Close()
					select {
					case errs <- err:
					default:
					}
					return
				}
				c.Close()
				client.Close()
			}
		}()
	}
	for _, ticket := range tickets {
		next <- ticket
	}
	close(next)
	wg.Wait()
	total := time.Since(start)
	select {
	case err := <-errs:
		return t, fmt.Errorf("bench: session scale: %w", err)
	default:
	}

	t.Rows = []Row{{
		Name: "stampede",
		Params: []Field{
			count("sessions", sessions), count("workers", workers), count("cold_limit", gcfg.ColdHandshakeLimit),
		},
		Modeled: []Field{
			count("asym_ops", attest.AsymOps()-before), count("admission_waits", gw.SessionAdmission().Waits()),
		},
		Measured: []Field{
			ns("wall_total", total), num("throughput", "ops/s", float64(sessions)/total.Seconds()),
		},
	}}
	return t, nil
}
