package bench

import (
	"strings"
	"testing"
	"time"
)

// smallEnvConfig is a reduced environment that still has every
// contract archetype and more than one HEVM.
func smallEnvConfig() EnvConfig {
	cfg := DefaultEnvConfig()
	cfg.EOAs = 12
	cfg.Tokens = 2
	cfg.DEXes = 1
	cfg.HEVMs = 2
	return cfg
}

// smallEnv builds a reduced environment.
func smallEnv(t testing.TB) *Env {
	t.Helper()
	env, err := NewEnv(smallEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// val reads one field of a table, failing the test when it is absent.
func val(t testing.TB, tab Table, row, field string) float64 {
	t.Helper()
	v, ok := tab.Value(row, field)
	if !ok {
		t.Fatalf("table %s has no %s.%s:\n%s", tab.Name, row, field, tab.Render())
	}
	return v
}

func dur(t testing.TB, tab Table, row, field string) time.Duration {
	t.Helper()
	return time.Duration(val(t, tab, row, field))
}

func TestTableIRuns(t *testing.T) {
	env := smallEnv(t)
	tabs, err := table1(env, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("tables = %d", len(tabs))
	}
	sizes, keys, depth := tabs[0], tabs[1], tabs[2]
	if got := val(t, depth, "2-5", "txs"); got != 120 {
		t.Errorf("depth table covers %v txs, want 120", got)
	}
	// Every distribution sums to 100 %.
	for _, c := range []struct {
		tab   Table
		field string
	}{{sizes, "code"}, {sizes, "input"}, {sizes, "memory"}, {sizes, "return"}, {keys, "share"}, {depth, "share"}} {
		sum := 0.0
		for _, r := range c.tab.Rows {
			sum += val(t, c.tab, r.Name, c.field)
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s.%s sums to %.2f%%", c.tab.Name, c.field, sum)
		}
	}
	if val(t, sizes, "<1k", "input") == 0 {
		t.Error("no frame has a small input")
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	env := smallEnv(t)
	tab, err := fig4(env, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	mean := func(config string) time.Duration { return dur(t, tab, config, "mean") }
	// Paper shape assertions.
	if mean("-raw") >= mean("-ES") {
		t.Errorf("-raw (%v) should be far below -ES (%v)", mean("-raw"), mean("-ES"))
	}
	if mean("-ES") >= mean("-full") {
		t.Errorf("-ES (%v) should be below -full (%v)", mean("-ES"), mean("-full"))
	}
	// Signature step ≈80 ms dominates encryption step ≈3 ms.
	sigStep := mean("-ES") - mean("-E")
	encStep := mean("-E") - mean("-raw")
	if sigStep < 10*encStep {
		t.Errorf("signature step %v should dominate encryption step %v", sigStep, encStep)
	}
	// -full stays within the paper's 600 ms usability bound.
	if mean("-full") > 600*time.Millisecond {
		t.Errorf("-full mean %v exceeds the 600 ms usability bound", mean("-full"))
	}
	if val(t, tab, "Geth", "n") != 20 {
		t.Errorf("Geth row covers %v bundles, want 20", val(t, tab, "Geth", "n"))
	}
}

func TestFig5ShapeHolds(t *testing.T) {
	env := smallEnv(t)
	tab, err := fig5(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		geth, tscvee, ours := dur(t, tab, r.Name, "geth"), dur(t, tab, r.Name, "tscvee"), dur(t, tab, r.Name, "hardtape")
		if geth <= 0 || tscvee <= 0 || ours < 0 {
			t.Errorf("%s: non-positive per-op times: %+v", r.Name, r)
		}
		// "No significant difference": within two orders of magnitude
		// on the log-scale plot.
		if ours > 0 && (ours > 100*geth || geth > 100*ours) {
			t.Errorf("%s: HarDTAPE %v vs Geth %v diverge beyond plot expectations", r.Name, ours, geth)
		}
	}
	if val(t, tab, "Transfer", "ops") != 1 {
		t.Error("Transfer row should be per single call")
	}
}

func TestScalabilityReport(t *testing.T) {
	env := smallEnv(t)
	tab, err := scalability(env, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"chip_throughput", "hevms_per_server", "query_gap"} {
		if val(t, tab, "-full", field) <= 0 {
			t.Errorf("%s must be positive", field)
		}
	}
}

func TestCorrectnessAllMatch(t *testing.T) {
	env := smallEnv(t)
	tab, err := correctness(env, 25)
	if err != nil {
		t.Fatal(err) // a trace mismatch is an error
	}
	matched, aborted := val(t, tab, "-full", "identical"), val(t, tab, "-full", "overflow_aborts")
	if total := val(t, tab, "-full", "bundles"); matched+aborted != total {
		t.Fatalf("accounting: %v + %v != %v", matched, aborted, total)
	}
	if val(t, tab, "-full", "mismatches") != 0 {
		t.Fatal("mismatches reported without an error")
	}
}

func TestResourcesReport(t *testing.T) {
	tab := resources()
	if got := val(t, tab, "model", "hevm_on_chip"); got < 1<<20 {
		t.Fatalf("per-HEVM budget %v below the 1 MB L2 alone", got)
	}
	if !strings.Contains(tab.Note, "103388 LUT") {
		t.Fatal("paper constants missing from the note")
	}
}

func TestAmortizationFallsWithBundleSize(t *testing.T) {
	env := smallEnv(t)
	tab, err := amortization(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Per-tx cost must fall monotonically as the per-bundle ECDSA round
	// amortizes.
	for i := 1; i < len(tab.Rows); i++ {
		prev, cur := dur(t, tab, tab.Rows[i-1].Name, "per_tx"), dur(t, tab, tab.Rows[i].Name, "per_tx")
		if cur >= prev {
			t.Fatalf("per-tx time not falling: %v then %v", prev, cur)
		}
	}
	// At 16 txs/bundle the ~80 ms signature is <6 ms/tx of the total.
	if one, sixteen := dur(t, tab, "1-tx", "per_tx"), dur(t, tab, "16-tx", "per_tx"); sixteen > one/2 {
		t.Fatalf("amortization too weak: 1-tx %v vs 16-tx %v", one, sixteen)
	}
}

func TestParallelSweepShape(t *testing.T) {
	env := smallEnv(t)
	tab, err := parallelSweep(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Lanes=1 is the sequential path: speedup 1x by construction.
	if s := val(t, tab, "1 lanes @ 0.00", "speedup"); s < 0.99 || s > 1.01 {
		t.Errorf("1-lane speedup = %.3f, want 1.0", s)
	}
	// Conflict-free bundles commit every speculation unchanged and beat
	// sequential; fully conflicting bundles re-execute at least one tx.
	const free, hot = "4 lanes @ 0.00", "4 lanes @ 1.00"
	if c := val(t, tab, free, "conflicts"); c != 0 {
		t.Errorf("rate-0 cell reported %v conflicts", c)
	}
	if s := val(t, tab, free, "speedup"); s <= 1.0 {
		t.Errorf("rate-0 speedup at 4 lanes = %.2f, want > 1", s)
	}
	if val(t, tab, hot, "conflicts") == 0 {
		t.Error("rate-1 cell saw no conflict")
	}
	if h, f := val(t, tab, hot, "speedup"), val(t, tab, free, "speedup"); h > f {
		t.Errorf("hot speedup %.2f exceeds conflict-free speedup %.2f", h, f)
	}
	if val(t, tab, hot, "lanes") != 4 || val(t, tab, hot, "conflict_rate") != 1 {
		t.Error("row params do not match the row name")
	}
}

func TestSessionsSweepRuns(t *testing.T) {
	env := smallEnv(t)
	tab, err := sessions(env, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ops := val(t, tab, "warm", "asym_ops"); ops != 0 {
		t.Fatalf("warm resume performed %v asymmetric ops, want 0", ops)
	}
	if val(t, tab, "cold", "asym_ops") == 0 {
		t.Fatal("cold dial should perform asymmetric ops")
	}
	if warm, cold := dur(t, tab, "warm", "device_cost"), dur(t, tab, "cold", "device_cost"); warm >= cold {
		t.Fatalf("modeled warm cost (%v) not below cold (%v)", warm, cold)
	}
	if val(t, tab, "warm", "ticket") == 0 {
		t.Fatalf("ticket size missing:\n%s", tab.Render())
	}
}
