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
		t.Fatal("run without -run succeeded")
	}
}

// runJSON runs benchtab with -json and decodes its stdout, which must
// be one document without a measured column.
func runJSON(t *testing.T, args ...string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(append(args, "-json"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stdout.Bytes(), []byte(`"measured"`)) {
		t.Errorf("document carries a \"measured\" key:\n%s", stdout.String())
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

// TestSweepOutputIndependentOfSelection pins that a sweep's output does
// not depend on which sweeps ran before it. It compares table1, whose
// fields all repeat exactly (internal/bench's drawDependent table is the
// one statement of which fields do not) and whose distributions move
// with the workload generator's state, which correctness and fig4 both
// advance.
func TestSweepOutputIndependentOfSelection(t *testing.T) {
	alone := runJSON(t, "-run", "table1", "-n", "16")
	together := runJSON(t, "-run", "correctness,fig4,table1", "-n", "16")
	if got := together.Tables[len(together.Tables)-len(alone.Tables):]; !reflect.DeepEqual(alone.Tables, got) {
		t.Errorf("table1 alone differs from table1 under -run correctness,fig4,table1:\n%+v\n%+v", alone.Tables, got)
	}
}
