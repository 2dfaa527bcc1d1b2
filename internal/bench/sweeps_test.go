package bench

import "testing"

// TestSweepsRegistry runs every registered sweep and checks the shape
// rules every table obeys.
func TestSweepsRegistry(t *testing.T) {
	units := map[string]bool{"ns": true, "count": true, "ratio": true, "x": true, "%": true, "B": true, "tx/s": true, "ops/s": true}
	mayMeasure := map[string]bool{"scalability": true, "interp": true, "sessions": true, "oram": true, "trace": true}
	wantNames := []string{"table1", "resources", "correctness", "fig4", "fig5", "amortization", "scalability",
		"interp", "ablations", "sessions", "parallel", "oram", "trace"}
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
			tabs, err := sw.RunFresh(DefaultEnvConfig(), 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(tabs) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tabs {
				if tab.Name == "" || tab.Title == "" || tableNames[tab.Name] {
					t.Errorf("table name %q / title %q empty or reused", tab.Name, tab.Title)
				}
				tableNames[tab.Name] = true
				if len(tab.Rows) == 0 {
					t.Errorf("%s: no rows", tab.Name)
				}
				rowNames := map[string]bool{}
				for _, r := range tab.Rows {
					if rowNames[r.Name] {
						t.Errorf("%s: row name %q reused", tab.Name, r.Name)
					}
					rowNames[r.Name] = true
					if len(r.Measured) > 0 && !mayMeasure[sw.Name] {
						t.Errorf("%s.%s carries measured fields; %s is a modeled-only sweep", tab.Name, r.Name, sw.Name)
					}
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
