package bench

import "testing"

func TestNoiseAblation(t *testing.T) {
	tab, err := noiseAblation()
	if err != nil {
		t.Fatal(err)
	}
	if val(t, tab, "noise-off", "identical_runs") != 1 {
		t.Error("without noise, identical workloads should give identical swap sizes")
	}
	if val(t, tab, "noise-on", "identical_runs") != 0 {
		t.Error("with noise, swap sizes should differ across RNG seeds")
	}
	if val(t, tab, "noise-on", "swap_events") == 0 {
		t.Error("no swap traffic generated")
	}
}

func TestPrefetchAblation(t *testing.T) {
	env := smallEnv(t)
	tab, err := prefetchAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	// Without prefetching, code pages form long contiguous runs; with
	// it, they interleave with K-V queries.
	if with, without := val(t, tab, "prefetch-on", "max_code_run"), val(t, tab, "prefetch-off", "max_code_run"); without <= with {
		t.Errorf("code-run ablation inverted: with=%v without=%v", with, without)
	}
	if val(t, tab, "prefetch-on", "queries") == 0 || val(t, tab, "prefetch-off", "queries") == 0 {
		t.Error("no queries recorded")
	}
}

func TestGroupingAblation(t *testing.T) {
	tab, err := groupingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// 1/page must cost 32 queries; 32/page must cost 1.
	if q := val(t, tab, "1/page", "oram_queries"); q != 32 {
		t.Errorf("ungrouped scan: %v queries", q)
	}
	if q := val(t, tab, "32/page", "oram_queries"); q != 1 {
		t.Errorf("grouped scan: %v queries", q)
	}
	if val(t, tab, "1/page", "bytes_moved") <= val(t, tab, "32/page", "bytes_moved") {
		t.Error("grouping should reduce bytes moved")
	}
}

func TestDepthAblation(t *testing.T) {
	tab, err := depthAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	perDepth := func(r Row) float64 {
		return val(t, tab, r.Name, "bytes_per_access") / val(t, tab, r.Name, "depth")
	}
	// Bytes per access must grow monotonically with capacity (O(log n)).
	for i := 1; i < len(tab.Rows); i++ {
		prev, cur := tab.Rows[i-1].Name, tab.Rows[i].Name
		if val(t, tab, cur, "bytes_per_access") <= val(t, tab, prev, "bytes_per_access") {
			t.Errorf("bytes/access not growing: %s then %s", prev, cur)
		}
		if val(t, tab, cur, "depth") <= val(t, tab, prev, "depth") {
			t.Errorf("depth not growing with capacity")
		}
	}
	// And the growth should be roughly linear in depth: ratio of
	// (bytes/access)/depth stays within 2x across the sweep.
	first, last := perDepth(tab.Rows[0]), perDepth(tab.Rows[len(tab.Rows)-1])
	if last > 2*first || first > 2*last {
		t.Errorf("bytes/access not ∝ depth: %f vs %f", first, last)
	}
}

func TestMaxCodeRun(t *testing.T) {
	if got := maxCodeRun([]byte("kkcccck")); got != 4 {
		t.Errorf("maxCodeRun = %d, want 4", got)
	}
	if got := maxCodeRun([]byte("ckckck")); got != 1 {
		t.Errorf("interleaved maxCodeRun = %d, want 1", got)
	}
	if maxCodeRun(nil) != 0 {
		t.Error("empty sequence")
	}
}
