package hardtape

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// TestTelemetryEndToEnd drives bundles through an instrumented fleet —
// service handshake, gateway dispatch, device execution, ORAM-backed
// world state — and asserts the admin endpoint exports every layer's
// series. This is the PR's acceptance check: one scrape covers
// service, ORAM, HEVM, and fleet.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := NewTelemetry()
	opts := DefaultTestbedOptions()
	opts.EOAs = 8
	opts.Tokens = 2
	opts.DEXes = 1
	opts.HEVMs = 1
	opts.Telemetry = reg
	fcfg := DefaultFleetConfig()
	ftb, err := NewFleetTestbed(opts, 2, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ftb.Gateway.Close()

	svc := NewFleetService(ftb.Gateway, ftb.Devices[0], opts.Features.Sign)
	svc.SetTelemetry(reg)
	userConn, spConn := net.Pipe()
	defer userConn.Close()
	go func() {
		defer spConn.Close()
		_ = svc.ServeConn(spConn)
	}()
	client, err := Dial(userConn, ftb.Verifier(), opts.Features.Sign)
	if err != nil {
		t.Fatal(err)
	}

	token := ftb.World.Tokens[0]
	for i := 0; i < 3; i++ {
		from := ftb.World.EOAs[i%len(ftb.World.EOAs)]
		to := ftb.World.EOAs[(i+1)%len(ftb.World.EOAs)]
		tx, err := ftb.World.SignedTxAt(from, 0, &token, 0,
			workload.CalldataTransfer(to, 5), 200_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.PreExecute(&types.Bundle{Txs: []*types.Transaction{tx}})
		if err != nil {
			t.Fatal(err)
		}
		if res.AbortReason != "" {
			t.Fatalf("bundle aborted: %s", res.AbortReason)
		}
	}

	a, err := StartAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	resp, err := http.Get("http://" + a.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	// One representative series per pipeline layer.
	for _, series := range []string{
		"hardtape_service_sessions_total",       // service: session accepted
		"hardtape_service_handshake_seconds",    // service: attest+DHKE spans
		"hardtape_service_bundle_stage_seconds", // service: decode/execute/seal
		"hardtape_device_bundles_total",         // device: bundle outcomes
		"hardtape_evm_ops_total",                // evm: op-class samples
		"hardtape_hevm_steps_total",             // hevm: shadow machine
		"hardtape_wscache_hits_total",           // hevm L1 world-state cache
		"hardtape_oram_accesses_total",          // oram client
		"hardtape_oram_access_seconds",          // oram latency histogram
		"hardtape_fleet_submissions_total",      // gateway admission
		"hardtape_fleet_queue_wait_seconds",     // gateway wait histogram
		"hardtape_fleet_waiting",                // gateway queue
		"hardtape_fleet_backend_dispatched_total",
		"hardtape_fleet_backend_in_flight",
		"hardtape_fleet_backend_healthy",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}

	// The scrape is the gateway's report: every bundle admitted and
	// completed, none left waiting, both devices up, and the devices'
	// shared registry counted their HEVM steps.
	for series, want := range map[string]string{
		`hardtape_fleet_submissions_total{outcome="admitted"}`: "3",
		`hardtape_fleet_bundles_total{outcome="completed"}`:    "3",
		"hardtape_fleet_waiting":                               "0",
		`hardtape_fleet_backend_healthy{backend="dev-0"}`:      "1",
		`hardtape_fleet_backend_healthy{backend="dev-1"}`:      "1",
	} {
		if !strings.Contains(out, "\n"+series+" "+want+"\n") {
			t.Errorf("/metrics: %s is not %s", series, want)
		}
	}
	if strings.Contains(out, "\nhardtape_hevm_steps_total 0\n") {
		t.Error("hardtape_hevm_steps_total counted no HEVM steps")
	}
}

// TestTelemetryDisabledParity checks the opt-out contract at the
// system level: a testbed without a registry executes bundles
// identically (the instruments are nil and record nothing).
func TestTelemetryDisabledParity(t *testing.T) {
	opts := DefaultTestbedOptions()
	opts.EOAs = 8
	opts.Tokens = 2
	opts.DEXes = 1
	opts.HEVMs = 1
	opts.Features = ConfigRaw
	tb, err := NewTestbed(opts)
	if err != nil {
		t.Fatal(err)
	}
	token := tb.World.Tokens[0]
	tx, err := tb.World.SignedTxAt(tb.World.EOAs[0], 0, &token, 0,
		workload.CalldataTransfer(tb.World.EOAs[1], 5), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Device.ExecuteContext(context.Background(), &types.Bundle{Txs: []*types.Transaction{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != nil || res.GasUsed == 0 {
		t.Fatalf("disabled-telemetry execution wrong: aborted=%v gas=%d", res.Aborted, res.GasUsed)
	}
}
