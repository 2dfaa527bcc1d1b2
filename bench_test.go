// Benchmarks regenerating the paper's tables and figures as testing.B
// targets. Each benchmark measures the real wall-clock cost of our
// software implementation of the corresponding experiment; the
// virtual-clock (paper-calibrated) numbers come from cmd/benchtab.
package hardtape

import (
	"context"
	"net"
	"sync"
	"testing"

	"hardtape/internal/attest"
	"hardtape/internal/bench"
	"hardtape/internal/core"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

var (
	_benchEnvOnce sync.Once
	_benchEnv     *bench.Env
	_benchEnvErr  error
)

func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	_benchEnvOnce.Do(func() {
		cfg := bench.DefaultEnvConfig()
		cfg.EOAs = 16
		cfg.Tokens = 3
		cfg.DEXes = 2
		cfg.HEVMs = 3
		_benchEnv, _benchEnvErr = bench.NewEnv(cfg)
	})
	if _benchEnvErr != nil {
		b.Fatal(_benchEnvErr)
	}
	return _benchEnv
}

// benchSweep runs one registry sweep over n transactions per iteration
// on the shared environment.
func benchSweep(b *testing.B, name string, n int) {
	env := benchEnv(b)
	sw, ok := bench.Find(name)
	if !ok {
		b.Fatalf("no sweep %q in the registry", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(env, n); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBundles pre-builds n single-tx evaluation bundles.
func benchBundles(b *testing.B, env *bench.Env, n int) []*types.Bundle {
	b.Helper()
	bundles, err := env.EvalBundles(n)
	if err != nil {
		b.Fatal(err)
	}
	return bundles
}

// --- Table I ---

// BenchmarkTableI measures the evaluation-set generation + statistics
// pipeline that reproduces Table I.
func BenchmarkTableI(b *testing.B) { benchSweep(b, "table1", 50) }

// --- Fig. 4: one benchmark per bar ---

func benchmarkConfig(b *testing.B, name string) {
	env := benchEnv(b)
	bundles := benchBundles(b, env, 16)
	dev := env.Devices[name]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dev.Execute(bundles[i%len(bundles)])
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkFig4Geth is the unprotected software baseline bar.
func BenchmarkFig4Geth(b *testing.B) {
	env := benchEnv(b)
	bundles := benchBundles(b, env, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Geth.ExecuteBundle(bundles[i%len(bundles)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Raw .. BenchmarkFig4Full are HarDTAPE's bars.
func BenchmarkFig4Raw(b *testing.B)  { benchmarkConfig(b, "-raw") }
func BenchmarkFig4E(b *testing.B)    { benchmarkConfig(b, "-E") }
func BenchmarkFig4ES(b *testing.B)   { benchmarkConfig(b, "-ES") }
func BenchmarkFig4ESO(b *testing.B)  { benchmarkConfig(b, "-ESO") }
func BenchmarkFig4Full(b *testing.B) { benchmarkConfig(b, "-full") }

// --- Fig. 5: warm local execution per platform ---

// BenchmarkFig5 regenerates the whole per-operation comparison.
func BenchmarkFig5(b *testing.B) { benchSweep(b, "fig5", 0) }

// --- §VI-B correctness ---

// BenchmarkCorrectness measures the trace-vs-ground-truth pipeline; a
// trace mismatch fails the sweep and with it the benchmark.
func BenchmarkCorrectness(b *testing.B) { benchSweep(b, "correctness", 5) }

// --- §VI-D scalability ---

// BenchmarkScalability measures the full scalability estimation run
// (including the real software-ORAM per-query measurement) over 4
// bundles — the sweep executes n/4+1.
func BenchmarkScalability(b *testing.B) { benchSweep(b, "scalability", 12) }

// --- bundle throughput through core.Service ---

// BenchmarkBundleThroughput drives multi-tx bundles through the full
// service path — secure-channel framing, per-tx execution on the
// device's HEVMs, trace assembly — and reports txs/sec. ConfigRaw
// keeps crypto and ORAM out of the way so the number tracks the
// interpreter fast path (ISSUE 4); gas/crypto-heavy variants live in
// the Fig. 4 benchmarks. The sequential/lanes-4 sub-benchmarks execute
// conflict-free bundles directly on one HEVM with the optimistic
// scheduler off and on: the modeled-speedup-x metric (virtual-clock
// ratio, host-core independent) is the ISSUE 8 ≥3x acceptance figure.
func BenchmarkBundleThroughput(b *testing.B) {
	b.Run("service", benchmarkServiceThroughput)
	b.Run("sequential", func(b *testing.B) { benchmarkLanes(b, 0) })
	b.Run("lanes-4", func(b *testing.B) { benchmarkLanes(b, 4) })
}

func benchmarkServiceThroughput(b *testing.B) {
	opts := DefaultTestbedOptions()
	opts.Features = ConfigRaw
	opts.HEVMs = 3
	tb, err := NewTestbed(opts)
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(tb.Device)

	userConn, spConn := net.Pipe()
	defer userConn.Close()
	go func() {
		defer spConn.Close()
		_ = svc.ServeConn(spConn)
	}()
	client, err := Dial(userConn, tb.Verifier(), false)
	if err != nil {
		b.Fatal(err)
	}

	// One bundle per EOA, each carrying txsPerBundle transfers from
	// the same sender (consecutive nonces); pre-execution never
	// commits, so the bundles replay indefinitely.
	const txsPerBundle = 8
	token := tb.World.Tokens[0]
	eoas := tb.World.EOAs
	bundles := make([]*types.Bundle, len(eoas))
	for i := range bundles {
		txs := make([]*types.Transaction, txsPerBundle)
		for j := range txs {
			tx, err := tb.World.SignedTxAt(eoas[i], uint64(j), &token, 0,
				workload.CalldataTransfer(eoas[(i+1)%len(eoas)], 7), 200_000)
			if err != nil {
				b.Fatal(err)
			}
			txs[j] = tx
		}
		bundles[i] = &types.Bundle{Txs: txs}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.PreExecute(bundles[i%len(bundles)])
		if err != nil {
			b.Fatal(err)
		}
		if res.AbortReason != "" {
			b.Fatalf("bundle aborted: %s", res.AbortReason)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*txsPerBundle)/b.Elapsed().Seconds(), "txs/sec")
}

// benchmarkLanes executes one 16-tx conflict-free uniform bundle
// (equal-cost arithmetic loops from distinct senders) on a single
// ConfigRaw HEVM with the given speculative-lane count. Reported
// metrics: wall txs/sec, the modeled per-bundle latency
// (virtual-ns/bundle), and — when lanes > 1 — modeled-speedup-x
// against a sequential device on the same bundle. The speedup rides
// the virtual lane clock, not wall time, so it is independent of how
// many host cores the benchmark machine has.
func benchmarkLanes(b *testing.B, lanes int) {
	const txsPerBundle = 16
	mk := func(lanes int) *Testbed {
		opts := DefaultTestbedOptions()
		opts.Features = ConfigRaw
		opts.HEVMs = 1
		opts.Lanes = lanes
		tb, err := NewTestbed(opts)
		if err != nil {
			b.Fatal(err)
		}
		return tb
	}
	tb := mk(lanes)
	txs := make([]*types.Transaction, txsPerBundle)
	for i := range txs {
		to := tb.World.ArithLoop
		tx, err := tb.World.SignedTxAt(tb.World.EOAs[i], 0, &to, 0,
			workload.CalldataUint(2000), 2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		txs[i] = tx
	}
	bundle := &types.Bundle{Txs: txs}

	res, err := tb.Device.Execute(bundle)
	if err != nil {
		b.Fatal(err)
	}
	speedup := 0.0
	if lanes > 1 {
		if res.Parallel == nil {
			b.Fatal("parallel device reported no scheduler stats")
		}
		if res.Parallel.Conflicts != 0 {
			b.Fatalf("conflict-free bundle reported %d conflicts", res.Parallel.Conflicts)
		}
		seqRes, err := mk(0).Device.Execute(bundle)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(seqRes.VirtualTime) / float64(res.VirtualTime)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tb.Device.Execute(bundle)
		if err != nil {
			b.Fatal(err)
		}
		if res.Aborted != nil {
			b.Fatalf("bundle aborted: %v", res.Aborted)
		}
	}
	b.StopTimer()
	// ResetTimer discards earlier user metrics, so report after the loop.
	if lanes > 1 {
		b.ReportMetric(speedup, "modeled-speedup-x")
	}
	b.ReportMetric(float64(res.VirtualTime.Nanoseconds()), "virtual-ns/bundle")
	b.ReportMetric(float64(b.N*txsPerBundle)/b.Elapsed().Seconds(), "txs/sec")
}

// BenchmarkBundleThroughputTelemetry is BenchmarkBundleThroughput with
// a live registry: compare allocs/op and txs/sec between the two to
// read off the enabled-telemetry overhead (the disabled case is
// BenchmarkBundleThroughput itself — telemetry off is the default and
// must cost nothing, which TestDisabledZeroAllocs pins per-call).
func BenchmarkBundleThroughputTelemetry(b *testing.B) {
	opts := DefaultTestbedOptions()
	opts.Features = ConfigRaw
	opts.HEVMs = 3
	opts.Telemetry = NewTelemetry()
	tb, err := NewTestbed(opts)
	if err != nil {
		b.Fatal(err)
	}
	svc := NewService(tb.Device)

	userConn, spConn := net.Pipe()
	defer userConn.Close()
	go func() {
		defer spConn.Close()
		_ = svc.ServeConn(spConn)
	}()
	client, err := Dial(userConn, tb.Verifier(), false)
	if err != nil {
		b.Fatal(err)
	}

	const txsPerBundle = 8
	token := tb.World.Tokens[0]
	eoas := tb.World.EOAs
	bundles := make([]*types.Bundle, len(eoas))
	for i := range bundles {
		txs := make([]*types.Transaction, txsPerBundle)
		for j := range txs {
			tx, err := tb.World.SignedTxAt(eoas[i], uint64(j), &token, 0,
				workload.CalldataTransfer(eoas[(i+1)%len(eoas)], 7), 200_000)
			if err != nil {
				b.Fatal(err)
			}
			txs[j] = tx
		}
		bundles[i] = &types.Bundle{Txs: txs}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.PreExecute(bundles[i%len(bundles)])
		if err != nil {
			b.Fatal(err)
		}
		if res.AbortReason != "" {
			b.Fatalf("bundle aborted: %s", res.AbortReason)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*txsPerBundle)/b.Elapsed().Seconds(), "txs/sec")
}

// --- fleet gateway ---

// BenchmarkGatewayThroughput measures parallel bundle throughput
// through the fleet gateway fronting 3 devices (3 HEVMs each): the
// admission/dispatch overhead on top of raw device execution.
func BenchmarkGatewayThroughput(b *testing.B) {
	opts := DefaultTestbedOptions()
	opts.Features = ConfigRaw // scheduling, not crypto, is under test
	opts.HEVMs = 3
	fcfg := DefaultFleetConfig()
	fcfg.QueueDepth = 4096 // saturate, don't backpressure
	ftb, err := NewFleetTestbed(opts, 3, fcfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ftb.Gateway.Close()

	token := ftb.World.Tokens[0]
	bundles := make([]*types.Bundle, len(ftb.World.EOAs))
	for i := range bundles {
		tx, err := ftb.World.SignedTxAt(ftb.World.EOAs[i], 0, &token, 0,
			workload.CalldataTransfer(ftb.World.EOAs[(i+1)%len(ftb.World.EOAs)], 7), 200_000)
		if err != nil {
			b.Fatal(err)
		}
		bundles[i] = &types.Bundle{Txs: []*types.Transaction{tx}}
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := ftb.Gateway.ExecuteContext(context.Background(), bundles[i%len(bundles)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// --- workload generation itself ---

// BenchmarkEvalSetGeneration measures synthetic block production.
func BenchmarkEvalSetGeneration(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.EOAs = 16
	cfg.Tokens = 2
	cfg.DEXes = 1
	w, err := workload.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.GenerateBlock(uint64(i+1), types.Hash{}, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- session resumption ---

// BenchmarkSessionResume pits the full attested dial (ECDSA + DHKE +
// certificate chain) against the ticket resume (AES-GCM only). The
// warm path's entire point is the gap between these two numbers.
func BenchmarkSessionResume(b *testing.B) {
	env := benchEnv(b)
	mfr, err := attest.NewManufacturer()
	if err != nil {
		b.Fatal(err)
	}
	dcfg := core.DefaultConfig()
	dcfg.Features = core.ConfigE // resumes never carry the -ES layer
	dev, err := core.NewDevice(dcfg, mfr, env.Chain)
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		b.Fatal(err)
	}
	svc := core.NewService(dev)
	verifier := attest.NewVerifier(mfr.PublicKey(), core.ImageMeasurement())
	serve := func() net.Conn {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			_ = svc.ServeConn(server)
		}()
		return client
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			conn := serve()
			c, err := core.Dial(conn, verifier, false)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			c.Close()
			conn.Close()
			b.StartTimer()
		}
	})

	b.Run("warm", func(b *testing.B) {
		conn := serve()
		c, err := core.Dial(conn, verifier, false)
		if err != nil {
			b.Fatal(err)
		}
		ticket := c.Ticket()
		c.Close()
		conn.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conn := serve()
			c, err := core.Resume(conn, ticket)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			ticket = c.Ticket()
			c.Close()
			conn.Close()
			if ticket == nil {
				b.Fatal("resume minted no successor ticket")
			}
			b.StartTimer()
		}
	})
}
