package core

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"reflect"
	"testing"

	"hardtape/internal/channel"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// The reflective gob codec the wire replaced is kept here as the
// oracle: for every bundle and trace the service carries, the explicit
// layout (wire.go) must decode to exactly what a gob round trip gives.

func gobRoundTrip[T any](t *testing.T, v *T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	var out T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkBundleOracle(t *testing.T, b *types.Bundle) {
	t.Helper()
	got, err := decodeBundle(appendBundle(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if want := gobRoundTrip(t, b); !reflect.DeepEqual(*got, want) {
		t.Fatalf("bundle decodes to %+v, gob gives %+v", *got, want)
	}
}

// checkTraceOracle compares a trace reply with gob's round trip. Span
// start times compare with time.Equal (gob keeps the zone offset, the
// wire keeps the instant), then drop out of the deep comparison.
func checkTraceOracle(t *testing.T, m *traceMsg) {
	t.Helper()
	got, err := decodeTrace(appendTrace(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	want := gobRoundTrip(t, m)
	if len(got.TraceSpans) != len(want.TraceSpans) {
		t.Fatalf("%d spans, gob gives %d", len(got.TraceSpans), len(want.TraceSpans))
	}
	for i := range got.TraceSpans {
		if !got.TraceSpans[i].Start.Equal(want.TraceSpans[i].Start) {
			t.Fatalf("span %d starts %v, gob gives %v", i, got.TraceSpans[i].Start, want.TraceSpans[i].Start)
		}
		got.TraceSpans[i].Start = want.TraceSpans[i].Start
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace decodes to %+v, gob gives %+v", got, want)
	}
}

// archetypeBundles draws from the generator until it has one
// single-transaction bundle per workload.TxKind, each rebuilt at its
// sender's canonical nonce so it runs against the pinned state.
func archetypeBundles(t *testing.T, w *workload.World) map[workload.TxKind]*types.Bundle {
	t.Helper()
	out := make(map[workload.TxKind]*types.Bundle)
	for i := 0; len(out) < int(workload.TxMemoryWorker) && i < 2000; i++ {
		tx, kind, err := w.GenerateTx()
		if err != nil {
			t.Fatal(err)
		}
		if out[kind] != nil {
			continue
		}
		sender, err := tx.Sender()
		if err != nil {
			t.Fatal(err)
		}
		if tx, err = w.SignedTxAt(sender, 0, tx.To, tx.Value.Uint64(), tx.Data, tx.GasLimit); err != nil {
			t.Fatal(err)
		}
		out[kind] = &types.Bundle{Txs: []*types.Transaction{tx}}
	}
	if len(out) != int(workload.TxMemoryWorker) {
		t.Fatalf("generator produced %d of %d archetypes", len(out), workload.TxMemoryWorker)
	}
	return out
}

// TestWireMatchesGobOracle covers the bundles and trace replies of all
// seven archetypes, a searcher bundle, a per-instruction trace, a hardware-aborted bundle,
// an executor failure and a traced reply's span segment.
func TestWireMatchesGobOracle(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigRaw, 2, 0))
	for kind, b := range archetypeBundles(t, sr.world) {
		checkBundleOracle(t, b)
		out := sr.svc.executeBundle(channel.TraceContext{}, b)
		if out.Failed || len(out.Trace.Txs) != 1 {
			t.Fatalf("archetype %d: %+v", kind, out)
		}
		checkTraceOracle(t, &out)
	}

	t.Run("mev", func(t *testing.T) {
		b, err := sr.world.MEVBundle(len(sr.world.EOAs), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		checkBundleOracle(t, b)
		out := sr.svc.executeBundle(channel.TraceContext{}, b)
		if out.Failed || len(out.Trace.Txs) != len(b.Txs) {
			t.Fatalf("mev bundle: %+v", out)
		}
		checkTraceOracle(t, &out)
	})

	t.Run("steps", func(t *testing.T) {
		cfg := config(ConfigRaw, 3, 0)
		cfg.CaptureSteps = true
		out := NewService(sr.newDevice(t, cfg)).executeBundle(channel.TraceContext{}, sr.transferBundle(t, 5))
		if len(out.Trace.Txs) != 1 || len(out.Trace.Txs[0].Steps) == 0 {
			t.Fatalf("no steps captured: %+v", out)
		}
		checkTraceOracle(t, &out)
	})

	t.Run("aborted", func(t *testing.T) {
		tx, err := sr.world.RollupTx(sr.world.EOAs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		b := &types.Bundle{Txs: []*types.Transaction{tx}}
		checkBundleOracle(t, b)
		out := sr.svc.executeBundle(channel.TraceContext{}, b)
		if out.Failed || out.AbortReason == "" {
			t.Fatalf("roll-up did not abort: %+v", out)
		}
		checkTraceOracle(t, &out)
	})

	t.Run("failed", func(t *testing.T) {
		out := sr.svc.executeBundle(channel.TraceContext{}, &types.Bundle{})
		if !out.Failed {
			t.Fatalf("empty bundle did not fail: %+v", out)
		}
		checkTraceOracle(t, &out)
	})

	t.Run("spans", func(t *testing.T) {
		tr := newRig(t, serviceWorld, tracedConfig(t))
		var tc channel.TraceContext
		if _, err := rand.Read(tc.Trace[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := rand.Read(tc.Span[:]); err != nil {
			t.Fatal(err)
		}
		out := tr.svc.executeBundle(tc, tr.transferBundle(t, 6))
		if len(out.TraceSpans) == 0 {
			t.Fatal("traced reply carries no spans")
		}
		checkTraceOracle(t, &out)
	})
}
