package fleet

import (
	"context"
	"net"
	"testing"

	"hardtape/internal/core"
	"hardtape/internal/telemetry"
)

// TestTracePropagationAcrossFleet is the examples/fleet topology with
// process-grade isolation: an end client, a gateway, and two devices,
// each with its OWN registry and flight recorder, talking only over
// TCP (devices) and a pipe (client). One traced high-conflict MEV
// bundle must come back as ONE contiguous trace in the client's
// recorder: the client root, the gateway's admission/scheduling
// segment, and the executing device's bundle, lane re-execution, and
// ORAM round spans, every parent link resolving.
func TestTracePropagationAcrossFleet(t *testing.T) {
	// Two device "processes" behind real TCP listeners. Full feature
	// set, parallel lanes, sharded ORAM — the whole span surface.
	device := func(proc string) core.Config {
		cfg := config(core.ConfigFull, 1)
		cfg.Lanes = 4
		cfg.ORAMShards = 2
		cfg.Telemetry = tracedRegistry(t, proc)
		return cfg
	}
	r := newRig(t, 16, device("device-0"), device("device-1"))
	rs0 := serveRemote(t, core.NewService(r.devices[0]))
	rs1 := serveRemote(t, core.NewService(r.devices[1]))

	// The gateway "process": remote backends only, its own recorder.
	gwReg := tracedRegistry(t, "gateway")
	verifier := r.verifier()
	fcfg := DefaultConfig()
	fcfg.Telemetry = gwReg
	gw := NewGateway(fcfg,
		NewRemoteBackend("remote-0", rs0.addr, verifier, true, 2),
		NewRemoteBackend("remote-1", rs1.addr, verifier, true, 2))
	defer gw.Close()

	// The gateway fronts the fleet over the same attested protocol a
	// single device speaks, borrowing device 0's identity
	// (cmd/hardtape's fleet mode, NewFleetService).
	fsvc := core.NewServiceFor(gw, r.devices[0].Booted(), true)
	fsvc.SetTelemetry(gwReg)
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	go func() {
		defer serverConn.Close()
		//hardtape:faulterr-ok the session ends when the test closes the pipe; its EOF is the shutdown signal
		_ = fsvc.ServeConn(serverConn)
	}()

	// The end-client "process".
	clientReg := tracedRegistry(t, "client")
	ctr := clientReg.Tracer()
	c, err := core.Dial(clientConn, verifier, true)
	if err != nil {
		t.Fatal(err)
	}
	c.UseTracer(ctr)

	// A high-conflict MEV bundle on cold devices: every tx hammers one
	// pool (lane re-execution), and every world-state query and code
	// prefetch is an ORAM round of the trace.
	bundle, err := r.world.MEVBundle(8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.PreExecuteContext(context.Background(), bundle)
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortReason != "" {
		t.Fatalf("bundle aborted: %s", res.AbortReason)
	}

	traces := clientReg.FlightRecorder().Traces()
	if len(traces) != 1 {
		t.Fatalf("client recorder kept %d traces, want 1", len(traces))
	}
	trace := traces[0]
	if trace.Root != "client.preexecute" {
		t.Fatalf("root %q, want client.preexecute", trace.Root)
	}

	names := map[string]int{}
	procs := map[string]bool{}
	spans := map[telemetry.SpanID]bool{}
	for _, s := range trace.Spans {
		if s.Trace != trace.ID {
			t.Fatalf("span %s carries trace %s, want %s", s.Name, s.Trace, trace.ID)
		}
		names[s.Name]++
		procs[s.Proc] = true
		spans[s.Span] = true
	}
	// One contiguous tree: every non-root parent is present.
	for _, s := range trace.Spans {
		if !s.Parent.IsZero() && !spans[s.Parent] {
			t.Errorf("span %s (%s@%s) has unresolved parent %s",
				s.Span, s.Name, s.Proc, s.Parent)
		}
	}
	if !procs["client"] || !procs["gateway"] || (!procs["device-0"] && !procs["device-1"]) {
		t.Errorf("procs %v, want client + gateway + one executing device", procs)
	}
	for _, want := range []string{
		"client.preexecute", // end client root
		"service.bundle",    // gateway fleet service admission
		"gateway.submit",    // fleet scheduling
		"gateway.dispatch",  // backend selection
		"device.bundle",     // executing device
		"device.exec",       // HEVM stage
		"lane.reexec",       // conflict-driven re-execution
		"oram.batch",        // one per ORAM round
	} {
		if names[want] == 0 {
			t.Errorf("span %q missing from trace (got %v)", want, names)
		}
	}
	// Both the gateway's fleet service and the device's service run
	// admission under the same propagated context.
	if names["service.bundle"] < 2 {
		t.Errorf("service.bundle count %d, want one per hop (>=2)", names["service.bundle"])
	}
	if names["oram.batch"] < 2 {
		t.Errorf("oram.batch count %d, want one per ORAM round (>=2)", names["oram.batch"])
	}
}
