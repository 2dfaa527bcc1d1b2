package bench

import (
	"slices"
	"testing"
)

// drawDependent is the one statement of which params/modeled fields may
// differ between two runs at the same (seed, n). Entries name a source
// of randomness or scheduling the model is open to, not fields that
// were seen to move; every other field must repeat exactly. A zero
// table matches every table, a nil rows every row.
var drawDependent = []struct {
	table  string
	rows   func(Row) bool
	fields []string
}{
	// (a) Times and query counts taken on a device with ORAMCode: its
	// prefetcher draws the cadence of code-page queries from crypto/rand.
	{table: "fig4", rows: rowNamed("-full"), fields: []string{"mean", "p50", "p95"}},
	{table: "fig5", fields: []string{"hardtape"}},
	{table: "amortization", fields: []string{"total", "per_tx"}},
	{table: "scalability", fields: []string{"mean_tx_time", "chip_throughput", "query_gap", "hevms_per_server"}},
	{table: "ablation_prefetch", rows: rowNamed("prefetch-on"), fields: []string{"queries", "max_code_run"}},
	// (b) ORAM byte and stash counters: every access remaps its block to
	// a leaf drawn from crypto/rand.
	{fields: []string{"bytes_moved", "bytes_per_access", "bytes_per_log2_capacity", "max_stash"}},
	// (c) The parallel sweep's scheduler fields on rows with more than
	// one lane: speculation runs on real goroutines, and which lane
	// reaches a contended slot first decides who conflicts (DESIGN.md §16).
	{table: "parallel", rows: func(r Row) bool { return r.Params[0].Value > 1 },
		fields: []string{"virtual_time", "speedup", "conflicts", "reexecs", "reexec_time", "spec_retries", "occupancy"}},
}

func rowNamed(name string) func(Row) bool { return func(r Row) bool { return r.Name == name } }

// drawDependentEntry returns the index of the drawDependent entry
// covering the field, or -1.
func drawDependentEntry(table string, r Row, field string) int {
	for i, d := range drawDependent {
		if (d.table == "" || d.table == table) && (d.rows == nil || d.rows(r)) && slices.Contains(d.fields, field) {
			return i
		}
	}
	return -1
}

// TestSweepsRegistry runs every registered sweep twice and checks the
// shape rules every table obeys and that the two runs agree on every
// field outside drawDependent.
func TestSweepsRegistry(t *testing.T) {
	units := map[string]bool{"ns": true, "count": true, "ratio": true, "x": true, "%": true, "B": true, "tx/s": true}
	wantNames := []string{"table1", "resources", "correctness", "fig4", "fig5", "amortization", "scalability",
		"ablations", "sessions", "parallel", "oram"}
	exempted := make([]bool, len(drawDependent))
	ran := 0 // a -run filter skips subtests, and with them the fields some entries cover
	if len(Sweeps) != len(wantNames) {
		t.Fatalf("registry holds %d sweeps, want %d", len(Sweeps), len(wantNames))
	}
	tableNames := map[string]bool{}
	for i, sw := range Sweeps {
		sw := sw
		if sw.Name != wantNames[i] {
			t.Errorf("sweep %d is %q, want %q", i, sw.Name, wantNames[i])
		}
		if got, ok := Find(sw.Name); !ok || got.Name != sw.Name {
			t.Errorf("Find(%q) = %q, %v", sw.Name, got.Name, ok)
		}
		t.Run(sw.Name, func(t *testing.T) {
			ran++
			tabs, err := sw.RunFresh(smallEnvConfig(), 8)
			if err != nil {
				t.Fatal(err)
			}
			again, err := sw.RunFresh(smallEnvConfig(), 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(tabs) == 0 || len(again) != len(tabs) {
				t.Fatalf("%d tables, then %d", len(tabs), len(again))
			}
			for ti, tab := range tabs {
				if tab.Name == "" || tab.Title == "" || tableNames[tab.Name] {
					t.Errorf("table name %q / title %q empty or reused", tab.Name, tab.Title)
				}
				tableNames[tab.Name] = true
				if len(tab.Rows) == 0 {
					t.Errorf("%s: no rows", tab.Name)
				}
				if len(again[ti].Rows) != len(tab.Rows) {
					t.Fatalf("%s: %d rows, then %d", tab.Name, len(tab.Rows), len(again[ti].Rows))
				}
				rowNames := map[string]bool{}
				for ri, r := range tab.Rows {
					if rowNames[r.Name] {
						t.Errorf("%s: row name %q reused", tab.Name, r.Name)
					}
					rowNames[r.Name] = true
					fieldNames := map[string]bool{}
					for k, kind := range fieldKinds {
						first := tab.Rows[0].kind(k)
						if len(r.kind(k)) != len(first) {
							t.Errorf("%s.%s has %d %s fields, first row has %d", tab.Name, r.Name, len(r.kind(k)), kind, len(first))
							continue
						}
						for i, f := range r.kind(k) {
							if f.Name != first[i].Name || f.Unit != first[i].Unit {
								t.Errorf("%s.%s %s field %d is %s [%s], first row has %s [%s]",
									tab.Name, r.Name, kind, i, f.Name, f.Unit, first[i].Name, first[i].Unit)
							}
							if fieldNames[f.Name] {
								t.Errorf("%s.%s: field name %q reused", tab.Name, r.Name, f.Name)
							}
							fieldNames[f.Name] = true
							if !units[f.Unit] {
								t.Errorf("%s.%s.%s: unit %q outside the closed set", tab.Name, r.Name, f.Name, f.Unit)
							}
							if e := drawDependentEntry(tab.Name, r, f.Name); e >= 0 {
								exempted[e] = true
							} else if g := again[ti].Rows[ri].kind(k); len(g) != len(first) || g[i] != f {
								t.Errorf("%s.%s.%s is %v in one run and %v in the next, and no drawDependent source covers it",
									tab.Name, r.Name, f.Name, f, g)
							}
						}
					}
				}
			}
		})
	}
	for i, used := range exempted {
		if !used && ran == len(Sweeps) {
			t.Errorf("drawDependent entry %d (%s %v) matches no field of any sweep", i, drawDependent[i].table, drawDependent[i].fields)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted an unregistered name")
	}
}
