package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/node"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// buildTracedServiceRig is buildServiceRig with tracing on at the
// device side (its own registry, standing in for the device process)
// and the parallel scheduler + sharded ORAM enabled so traced bundles
// cover every span family.
func buildTracedServiceRig(t testing.TB) (*serviceRig, *telemetry.Registry) {
	t.Helper()
	mfr, err := attest.NewManufacturer()
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig()
	wcfg.EOAs = 8
	wcfg.Tokens = 2
	wcfg.DEXes = 1
	w, err := workload.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		t.Fatal(err)
	}
	devReg := telemetry.NewRegistry()
	devReg.EnableTracing("device", 0)
	t.Cleanup(devReg.FlightRecorder().Close)
	cfg := DefaultConfig()
	cfg.Features = ConfigFull
	cfg.HEVMs = 2
	cfg.Lanes = 2
	cfg.ORAMShards = 2
	cfg.Telemetry = devReg
	dev, err := NewDevice(cfg, mfr, chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	return &serviceRig{
		rig: &rig{world: w, chain: chain, device: dev},
		mfr: mfr,
		svc: NewService(dev),
	}, devReg
}

// TestConcurrentTracedMuxTraffic hammers one multiplexed session with
// parallel traced bundles: concurrent span recording at the client,
// service, device, and ORAM layers all funnel through two recorders
// while replies interleave on the mux. Run under -race this is the
// whole-pipeline data-race harness for the tracing tentpole.
func TestConcurrentTracedMuxTraffic(t *testing.T) {
	sr, _ := buildTracedServiceRig(t)
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	go func() {
		defer serverConn.Close()
		//hardtape:faulterr-ok the session ends when the test closes the pipe; its EOF is the shutdown signal
		_ = sr.svc.ServeConn(serverConn)
	}()

	clientReg := telemetry.NewRegistry()
	ctr := clientReg.EnableTracing("client", 0)
	defer clientReg.FlightRecorder().Close()

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
// carry an Err.
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
		if s.Err != "" {
			failed[s.Name] = true
		}
	}
	return count, failed
}

// TestSpanErrLandsOnFailingLayer injects a fault into one layer at a
// time and checks the merged span's deferred End put the error on that
// layer's span (and on the callers the error propagated through), never
// on a sibling or a callee: a bad nonce fails device.exec/device.bundle,
// an expired wait for a core fails device.slot_wait and never opens
// device.exec, the service span fails while the client's stays clean
// (the failure travels as an abort reason), and a dead connection fails
// client.preexecute alone.
func TestSpanErrLandsOnFailingLayer(t *testing.T) {
	sr, devReg := buildTracedServiceRig(t)
	dev := sr.device
	to := types.BytesToAddress([]byte{0xcd})
	badNonce, err := sr.world.SignedTxAt(sr.world.EOAs[1], 7, &to, 1, nil, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	bad := &types.Bundle{Txs: []*types.Transaction{sr.transferBundleFrom(t, 2, 5).Txs[0], badNonce}}
	want := func(what string, failed map[string]bool, names ...string) {
		t.Helper()
		if len(failed) != len(names) {
			t.Errorf("%s: spans with Err %v, want exactly %v", what, failed, names)
		}
		for _, n := range names {
			if !failed[n] {
				t.Errorf("%s: span %s carries no Err (failed: %v)", what, n, failed)
			}
		}
	}

	count, failed := errSpans(t, devReg, func(ctx context.Context) {
		if _, err := dev.ExecuteContext(ctx, bad); err == nil {
			t.Error("bad-nonce bundle executed")
		}
	})
	want("device fault", failed, "device.exec", "device.bundle")
	if count["device.slot_wait"] != 0 {
		t.Errorf("idle device recorded a slot wait: %v", count)
	}

	// Hold every core so the bundle can only wait, then let ctx expire.
	held := make([]*slot, cap(dev.slots))
	for i := range held {
		held[i] = <-dev.slots
	}
	count, failed = errSpans(t, devReg, func(ctx context.Context) {
		ctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		defer cancel()
		if _, err := dev.ExecuteContext(ctx, bad); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("wait for a held core: %v, want deadline exceeded", err)
		}
	})
	for _, s := range held {
		dev.slots <- s
	}
	want("slot wait", failed, "device.slot_wait", "device.bundle")
	if count["device.exec"] != 0 {
		t.Errorf("a bundle that never got a core opened device.exec: %v", count)
	}

	// Through the wire: the service span fails, the client's does not.
	clientReg := telemetry.NewRegistry()
	ctr := clientReg.EnableTracing("client", 0)
	defer clientReg.FlightRecorder().Close()
	conn := sr.serveOnce(t)
	c, err := Dial(conn, sr.verifier(), true)
	if err != nil {
		t.Fatal(err)
	}
	c.UseTracer(ctr)
	_, failed = errSpans(t, clientReg, func(ctx context.Context) {
		res, err := c.PreExecuteContext(ctx, bad)
		if err != nil || !strings.Contains(res.AbortReason, "core: tx 1:") {
			t.Errorf("bad bundle over the wire: %v, %+v", err, res)
		}
	})
	want("service fault", failed, "service.bundle", "device.bundle", "device.exec")

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
	sr, devReg := buildTracedServiceRig(t)
	dev := sr.device
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
