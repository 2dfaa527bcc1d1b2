package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hardtape/internal/bench"
)

func TestRunUnknownSweepListsValidNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "fig4,nope"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("run accepted an unknown sweep name")
	}
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error does not name the unknown sweep: %v", err)
	}
	for _, s := range bench.Sweeps {
		if !strings.Contains(err.Error(), s.Name) {
			t.Errorf("error does not list valid sweep %q: %v", s.Name, err)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown sweep still produced output:\n%s", stdout.String())
	}
}

func TestRunNoSelectionFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Fatal("run without -run or -telemetry succeeded")
	}
}

// runJSON runs benchtab with -json and decodes its stdout.
func runJSON(t *testing.T, args ...string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(append(args, "-json"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var doc report
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout.String())
	}
	return doc
}

func TestRunJSONIsOneDocument(t *testing.T) {
	doc := runJSON(t, "-run", "resources,oram")
	if doc.Seed != bench.DefaultEnvConfig().Seed || doc.N != 100 {
		t.Errorf("seed/n = %d/%d", doc.Seed, doc.N)
	}
	if len(doc.Tables) != 2 || doc.Tables[0].Name != "resources" || doc.Tables[1].Name != "oram" {
		t.Errorf("tables = %+v", doc.Tables)
	}
}

// TestSweepOutputIndependentOfSelection pins that a sweep's modeled
// output is a function of (seed, n), not of which sweeps ran before it.
// Only times taken on the -full device are exempt: its prefetcher draws
// intervals from crypto/rand.
func TestSweepOutputIndependentOfSelection(t *testing.T) {
	modeled := func(doc report, table string) map[string][]bench.Field {
		for _, tab := range doc.Tables {
			if tab.Name != table {
				continue
			}
			rows := map[string][]bench.Field{}
			for _, r := range tab.Rows {
				if table == "fig4" && r.Name == "-full" {
					continue
				}
				rows[r.Name] = r.Modeled
			}
			return rows
		}
		t.Fatalf("no %s table in %+v", table, doc.Tables)
		return nil
	}
	together := runJSON(t, "-run", "table1,correctness,fig4", "-n", "16")
	for _, table := range []string{"correctness", "fig4"} {
		alone := runJSON(t, "-run", table, "-n", "16")
		if a, b := modeled(alone, table), modeled(together, table); !reflect.DeepEqual(a, b) {
			t.Errorf("%s alone differs from %s under -run table1,correctness,fig4:\n%v\n%v", table, table, a, b)
		}
	}
}
