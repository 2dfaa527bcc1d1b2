package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hardtape/internal/channel"
	"hardtape/internal/hevm"
	"hardtape/internal/session"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
	"hardtape/internal/workload"
)

// tracedConfig is a 2-core -full device with 2 lanes and 2 ORAM shards,
// so traced bundles cover every span family, tracing into its own
// registry (standing in for the device process).
func tracedConfig(t testing.TB) Config {
	cfg := config(ConfigFull, 2, 2)
	cfg.ORAMShards = 2
	cfg.Telemetry = tracedRegistry(t, "device")
	return cfg
}

// TestConcurrentTracedMuxTraffic hammers one multiplexed session with
// parallel traced bundles: concurrent span recording at the client,
// service, device, and ORAM layers all funnel through two recorders
// while replies interleave on the mux. Run under -race this is the
// whole-pipeline data-race harness for the tracing tentpole.
func TestConcurrentTracedMuxTraffic(t *testing.T) {
	sr := newRig(t, serviceWorld, tracedConfig(t))
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	go func() {
		defer serverConn.Close()
		//hardtape:faulterr-ok the session ends when the test closes the pipe; its EOF is the shutdown signal
		_ = sr.svc.ServeConn(serverConn)
	}()

	clientReg := tracedRegistry(t, "client")
	ctr := clientReg.Tracer()

	c, err := Dial(clientConn, sr.verifier(), true)
	if err != nil {
		t.Fatal(err)
	}
	c.UseTracer(ctr)

	const workers, rounds = 6, 4
	var wg sync.WaitGroup
	errc := make(chan error, workers*rounds)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				bundle := sr.transferBundleFrom(t, g, uint64(10+g))
				res, err := c.PreExecuteContext(context.Background(), bundle)
				if err != nil {
					errc <- err
					return
				}
				if res.AbortReason != "" {
					errc <- fmt.Errorf("bundle aborted: %s", res.AbortReason)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("traced mux bundle: %v", err)
	}

	rec := clientReg.FlightRecorder()
	traces := rec.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces kept after concurrent traced traffic")
	}
	// Every kept trace must be contiguous: client root, device-side
	// segment adopted over the wire, all parent links resolving.
	for _, trace := range traces {
		procs := map[string]bool{}
		spans := map[telemetry.SpanID]bool{}
		for _, s := range trace.Spans {
			procs[s.Proc] = true
			spans[s.Span] = true
		}
		if !procs["client"] || !procs["device"] {
			t.Fatalf("trace %s procs %v, want client and device", trace.ID, procs)
		}
		if trace.Root != "client.preexecute" {
			t.Errorf("trace %s root %q, want client.preexecute", trace.ID, trace.Root)
		}
		for _, s := range trace.Spans {
			if !s.Parent.IsZero() && !spans[s.Parent] {
				t.Errorf("trace %s span %s (%s) has unresolved parent %s",
					trace.ID, s.Span, s.Name, s.Parent)
			}
		}
	}
}

// errSpans runs fn under a fresh root span on reg and returns, for the
// trace it produced, how many spans of each name ended and which names
// are marked failed.
func errSpans(t *testing.T, reg *telemetry.Registry, fn func(ctx context.Context)) (count map[string]int, failed map[string]bool) {
	t.Helper()
	root, ctx := reg.StartSpan(reg.ContinueTrace(context.Background(), telemetry.SpanContext{}), "test.root")
	fn(ctx)
	root.End(nil, nil)
	trace := reg.FlightRecorder().Lookup(root.Context().Trace)
	if trace == nil {
		t.Fatalf("trace %s not kept", root.Context().Trace)
	}
	count, failed = map[string]int{}, map[string]bool{}
	for _, s := range trace.Spans {
		count[s.Name]++
		if s.Err {
			failed[s.Name] = true
		}
	}
	return count, failed
}

// renderedTraces is every trace reg's flight recorder keeps, rendered
// as /traces serves them: the span-tree JSON and the Chrome export.
func renderedTraces(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	for _, trace := range reg.FlightRecorder().Traces() {
		if err := telemetry.WriteTraceJSON(&b, trace); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteChromeTrace(&b, trace); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// assertNotRendered fails when text appears in out, raw or as a JSON
// string escapes it.
func assertNotRendered(t *testing.T, what, out, text string) {
	t.Helper()
	quoted, _ := json.Marshal(text)
	if strings.Contains(out, text) || strings.Contains(out, strings.Trim(string(quoted), `"`)) {
		t.Errorf("%s: rendered traces carry %q", what, text)
	}
}

// TestSpanErrLandsOnFailingLayer injects one failure family at a time
// and checks the merged span's deferred End marked that layer's span
// failed (and the callers the error propagated through), never a
// sibling or a callee: a transaction the EVM refuses fails
// device.exec/device.bundle, an expired wait for a core fails
// device.slot_wait and never opens device.exec, and a Memory Overflow
// abort or an L3 page tampered with mid-bundle fails no span (the
// bundle ran; its result says why). In every
// family the error's text reaches neither export of any kept trace: a
// span records that it failed, never why. Through the wire the service
// span fails while the client's stays clean (the failure travels as an
// abort reason, in the sealed reply only), a bundle frame the service
// cannot decode fails no span, and a dead connection fails
// client.preexecute alone.
func TestSpanErrLandsOnFailingLayer(t *testing.T) {
	sr := newRig(t, serviceWorld, tracedConfig(t))
	dev, devReg := sr.device, sr.device.cfg.Telemetry
	to, hog, deep := types.BytesToAddress([]byte{0xcd}), sr.world.MemoryHog, sr.world.DeepCaller
	signed := func(nonce, value uint64, to *types.Address, data []byte, gas uint64) *types.Transaction {
		t.Helper()
		tx, err := sr.world.SignedTxAt(sr.world.EOAs[1], nonce, to, value, data, gas)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	badNonce := signed(7, 1, &to, nil, 40_000)
	good := signed(0, 1, &to, nil, 40_000)
	// A zero R recovers no sender. A fresh struct drops the sender
	// Sign cached.
	badSig := &types.Transaction{Nonce: good.Nonce, GasPrice: good.GasPrice, GasLimit: good.GasLimit,
		To: good.To, Value: good.Value, R: new(uint256.Int), S: good.S, V: good.V}
	bundleWith := func(tx *types.Transaction) *types.Bundle {
		return &types.Bundle{Txs: []*types.Transaction{sr.transferBundleFrom(t, 2, 5).Txs[0], tx}}
	}
	want := func(what string, failed map[string]bool, names ...string) {
		t.Helper()
		if len(failed) != len(names) {
			t.Errorf("%s: failed spans %v, want exactly %v", what, failed, names)
		}
		for _, n := range names {
			if !failed[n] {
				t.Errorf("%s: span %s not marked failed (failed: %v)", what, n, failed)
			}
		}
	}

	for _, row := range []struct {
		name   string
		bundle *types.Bundle
		// holdCores runs the bundle with every core held until a
		// short deadline ends its wait.
		holdCores bool
		// tamper runs the bundle on small-L2 machines whose L3 flips
		// a bit of the first page each returns.
		tamper bool
		failed []string
	}{
		{name: "bad nonce", bundle: bundleWith(badNonce), failed: []string{"device.exec", "device.bundle"}},
		{name: "insufficient funds", bundle: bundleWith(signed(0, 1<<62, &to, nil, 40_000)), failed: []string{"device.exec", "device.bundle"}},
		{name: "intrinsic gas", bundle: bundleWith(signed(0, 1, &to, nil, 20_000)), failed: []string{"device.exec", "device.bundle"}},
		{name: "bad signature", bundle: bundleWith(badSig), failed: []string{"device.exec", "device.bundle"}},
		{name: "slot wait", bundle: bundleWith(badNonce), holdCores: true, failed: []string{"device.slot_wait", "device.bundle"}},
		// TestMemoryOverflowAbortsBundle's one-transaction hog call.
		{name: "memory overflow", bundle: &types.Bundle{Txs: []*types.Transaction{signed(0, 0, &hog, workload.CalldataUint(600_000), 25_000_000)}}},
		{name: "l3 tamper", bundle: &types.Bundle{Txs: []*types.Transaction{signed(0, 0, &deep, workload.CalldataUint(40), 5_000_000)}}, tamper: true},
	} {
		var text string
		count, failed := errSpans(t, devReg, func(ctx context.Context) {
			if row.tamper {
				defer withL3(t, dev, smallL2(dev.cfg).Hardware, func() hevm.L3 {
					return newRogueL3(l3Attacks[0].attack)
				})()
			}
			if row.holdCores {
				held := make([]*slot, cap(dev.slots))
				for i := range held {
					held[i] = <-dev.slots
				}
				defer func() {
					for _, s := range held {
						dev.slots <- s
					}
				}()
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 10*time.Millisecond)
				defer cancel()
			}
			res, err := dev.ExecuteContext(ctx, row.bundle)
			switch {
			case row.holdCores && !errors.Is(err, context.DeadlineExceeded):
				t.Errorf("%s: %v, want deadline exceeded", row.name, err)
			case row.failed == nil && err != nil:
				t.Errorf("%s: %v", row.name, err)
			case row.tamper && res.Aborted != hevm.ErrL3Tampered:
				t.Fatalf("%s: aborted %v, want ErrL3Tampered", row.name, res.Aborted)
			case row.failed == nil:
				var moe *hevm.MemoryOverflowError
				if !row.tamper && !errors.As(res.Aborted, &moe) {
					t.Fatalf("%s: aborted %v, want a Memory Overflow Error", row.name, res.Aborted)
				}
				text = res.Aborted.Error()
			case err == nil:
				t.Fatalf("%s: bundle executed", row.name)
			default:
				text = err.Error()
			}
		})
		want(row.name, failed, row.failed...)
		if row.holdCores && count["device.exec"] != 0 {
			t.Errorf("%s: a bundle that never got a core opened device.exec: %v", row.name, count)
		}
		if !row.holdCores && count["device.slot_wait"] != 0 {
			t.Errorf("%s: idle device recorded a slot wait: %v", row.name, count)
		}
		assertNotRendered(t, row.name, renderedTraces(t, devReg), text)
	}

	// Through the wire, first untraced: the service roots the trace on
	// the device's own recorder.
	bad := bundleWith(badNonce)
	reason := func(c *Client, ctx context.Context) string {
		t.Helper()
		res, err := c.PreExecuteContext(ctx, bad)
		if err != nil || !strings.Contains(res.AbortReason, "core: tx 1:") {
			t.Fatalf("bad bundle over the wire: %v, %+v", err, res)
		}
		return res.AbortReason
	}
	c, err := Dial(sr.serveOnce(t), sr.verifier(), true)
	if err != nil {
		t.Fatal(err)
	}
	assertNotRendered(t, "untraced client", renderedTraces(t, devReg), reason(c, context.Background()))

	// Traced: the service span fails, the client's does not.
	clientReg := tracedRegistry(t, "client")
	conn := sr.serveOnce(t)
	if c, err = Dial(conn, sr.verifier(), true); err != nil {
		t.Fatal(err)
	}
	c.UseTracer(clientReg.Tracer())
	var text string
	_, failed := errSpans(t, clientReg, func(ctx context.Context) { text = reason(c, ctx) })
	want("service fault", failed, "service.bundle", "device.bundle", "device.exec")
	assertNotRendered(t, "traced client", renderedTraces(t, clientReg), text)

	// A bundle frame whose body fails decodeBundle: the service answers
	// with the decode error before any of its spans starts, so an
	// untraced frame leaves the device's recorder as it was and a
	// traced one adds nothing to the client's trace.
	malformed := appendBundle(nil, bad)[:12]
	_, decodeErr := decodeBundle(malformed)
	if decodeErr == nil {
		t.Fatal("truncated bundle decoded")
	}
	sendMalformed := func(ctx context.Context, tc channel.TraceContext) {
		t.Helper()
		_, err := c.mux.RoundTrip(ctx, session.MuxBundle, tc, malformed)
		if err == nil || !strings.Contains(err.Error(), decodeErr.Error()) {
			t.Errorf("malformed frame: client got %v, want the decode error %q", err, decodeErr)
		}
	}
	before := devReg.FlightRecorder().Stats()
	sendMalformed(context.Background(), channel.TraceContext{})
	if after := devReg.FlightRecorder().Stats(); after.Kept != before.Kept || after.Dropped != before.Dropped {
		t.Errorf("untraced malformed frame recorded a trace: recorder %+v, was %+v", after, before)
	}
	count, failed := errSpans(t, clientReg, func(ctx context.Context) {
		sp, _ := clientReg.StartSpan(ctx, "test.frame")
		sendMalformed(ctx, wireTraceContext(sp.Context()))
		sp.End(nil, nil)
	})
	want("malformed frame", failed)
	if len(count) != 2 {
		t.Errorf("malformed frame produced spans beyond root and frame: %v", count)
	}
	assertNotRendered(t, "malformed frame", renderedTraces(t, clientReg)+renderedTraces(t, devReg), decodeErr.Error())

	conn.Close()
	count, failed = errSpans(t, clientReg, func(ctx context.Context) {
		if _, err := c.PreExecuteContext(ctx, bad); err == nil {
			t.Error("pre-execute on a closed connection succeeded")
		}
	})
	want("client fault", failed, "client.preexecute")
	if len(count) != 2 {
		t.Errorf("dead connection produced spans beyond root and client: %v", count)
	}
}

// TestTracedBundleSpansEveryORAMRound: a traced -full bundle with code
// prefetching on (so every real query and every prefetch is its own
// single-access round) has one oram.batch span per ORAM round it
// caused, counted from the ORAM client's own access counter.
func TestTracedBundleSpansEveryORAMRound(t *testing.T) {
	sr := newRig(t, serviceWorld, tracedConfig(t))
	dev, devReg := sr.device, sr.device.cfg.Telemetry
	if dev.Config().DisablePrefetch {
		t.Fatal("rig has code prefetching off")
	}
	bundle, err := sr.world.MEVBundle(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	before := dev.ORAMStats()
	count, failed := errSpans(t, devReg, func(ctx context.Context) {
		if _, err := dev.ExecuteContext(ctx, bundle); err != nil {
			t.Error(err)
		}
	})
	after := dev.ORAMStats()
	if after.Batches != before.Batches {
		t.Fatalf("prefetching bundle ran %d multi-op rounds", after.Batches-before.Batches)
	}
	rounds := after.Accesses - before.Accesses
	if rounds == 0 || uint64(count["oram.batch"]) != rounds {
		t.Fatalf("%d oram.batch spans for %d ORAM rounds (spans %v, failed %v)", count["oram.batch"], rounds, count, failed)
	}
}
