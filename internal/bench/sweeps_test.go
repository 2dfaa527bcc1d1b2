package bench

import "testing"

// TestSweepsRegistry runs every registered sweep twice and checks the
// shape rules every table obeys and that the two runs agree on every
// field: the model is a function of (seed, n).
func TestSweepsRegistry(t *testing.T) {
	units := map[string]bool{"ns": true, "count": true, "ratio": true, "x": true, "%": true, "B": true, "tx/s": true}
	wantNames := []string{"table1", "resources", "correctness", "fig4", "fig5", "amortization", "scalability",
		"ablations", "sessions", "parallel", "oram"}
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
							if g := again[ti].Rows[ri].kind(k); len(g) != len(first) || g[i] != f {
								t.Errorf("%s.%s.%s is %v in one run and %v in the next", tab.Name, r.Name, f.Name, f, g)
							}
						}
					}
				}
			}
		})
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted an unregistered name")
	}
}
