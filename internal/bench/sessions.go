package bench

import (
	"fmt"
	"net"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/core"
	"hardtape/internal/session"
	"hardtape/internal/simclock"
)

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

// sessions performs n cold dials and n warm resumes against one service
// and reports what a handshake of each kind costs the device: the
// simclock calibration (the software ECDSA on the A53 dominates the
// real device's cold dial) and the asymmetric operations counted while
// the handshakes ran. Host wall time of the same two handshakes is
// benchmark/'s session.cold_dial_p50_us / session.warm_resume_p50_us.
func sessions(env *Env, n int) (Table, error) {
	t := Table{
		Name:  "sessions",
		Title: "sessions — cold dial vs ticket resume",
		Note: "device_cost is the simclock calibration: cold pays the A53 ECDSA+DHKE, warm only A.E.DMA;\n" +
			"asym_ops is per handshake",
	}
	if n < 2 {
		n = 2
	}
	// The service sits over an unsigned device (resume forbids the
	// per-message ECDSA layer) with its own manufacturer so the verifier
	// can pin a root of trust.
	mfr, err := attest.NewManufacturer()
	if err != nil {
		return t, err
	}
	dcfg := core.DefaultConfig()
	dcfg.Features = core.ConfigE
	dev, err := env.newDevice(dcfg, mfr)
	if err != nil {
		return t, err
	}
	svc := core.NewService(dev)
	vrf := attest.NewVerifier(mfr.PublicKey(), core.ImageMeasurement())

	// Every handshake harvests the ticket the next resume presents, so
	// the last cold dial seeds the warm chain and each resume consumes
	// its predecessor's rotated successor — the chain the real client
	// lives on.
	var ticket *session.ClientTicket
	sweep := func(kind string, handshake func(net.Conn) (*core.Client, error)) (uint64, error) {
		before := attest.AsymOps()
		for i := 0; i < n; i++ {
			conn := servePipe(svc)
			c, err := handshake(conn)
			if err != nil {
				return 0, fmt.Errorf("bench: %s %d: %w", kind, i, err)
			}
			ticket = c.Ticket()
			c.Close()
			conn.Close()
			if ticket == nil {
				return 0, fmt.Errorf("bench: %s %d minted no ticket", kind, i)
			}
		}
		return attest.AsymOps() - before, nil
	}
	coldOps, err := sweep("cold dial", func(conn net.Conn) (*core.Client, error) {
		return core.Dial(conn, vrf, false)
	})
	if err != nil {
		return t, err
	}
	ticketBytes := len(ticket.Opaque)
	warmOps, err := sweep("warm resume", func(conn net.Conn) (*core.Client, error) {
		return core.Resume(conn, ticket)
	})
	if err != nil {
		return t, err
	}

	cal := simclock.DefaultCalibration()
	row := func(name string, cost time.Duration, ops uint64) Row {
		return Row{
			Name:   name,
			Params: []Field{count("handshakes", n)},
			Modeled: []Field{
				ns("device_cost", cost), count("asym_ops", ops/uint64(n)), num("ticket", "B", ticketBytes),
			},
		}
	}
	t.Rows = []Row{
		row("cold", cal.ColdHandshakeCost(), coldOps),
		row("warm", cal.WarmResumeCost(ticketBytes), warmOps),
	}
	return t, nil
}
