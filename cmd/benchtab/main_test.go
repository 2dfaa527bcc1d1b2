package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"hardtape/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata/modeled.golden.json from this run")

// goldenPath holds the output of `benchtab -run all -n 16 -json`.
const goldenPath = "testdata/modeled.golden.json"

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
// distributions move with the workload generator's state, which
// correctness and fig4 both advance. Like every field of every sweep,
// table1's repeat exactly.
func TestSweepOutputIndependentOfSelection(t *testing.T) {
	alone := runJSON(t, "-run", "table1", "-n", "16")
	together := runJSON(t, "-run", "correctness,fig4,table1", "-n", "16")
	if got := together.Tables[len(together.Tables)-len(alone.Tables):]; !reflect.DeepEqual(alone.Tables, got) {
		t.Errorf("table1 alone differs from table1 under -run correctness,fig4,table1:\n%+v\n%+v", alone.Tables, got)
	}
}

// TestModeledGolden pins the whole modeled column: the output of
// `benchtab -run all -n 16 -json` must equal the committed golden byte
// for byte, so a change that moves a modeled number shows the move in
// its diff. Rewrite the golden with
// `go test ./cmd/benchtab -run TestModeledGolden -update`.
func TestModeledGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "all", "-n", "16", "-json"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(stdout.Bytes(), want) {
		return
	}
	got, exp := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(got), len(exp)); i++ {
		if got[i] != exp[i] {
			t.Fatalf("output differs from %s at line %d:\n got %s\nwant %s", goldenPath, i+1, got[i], exp[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(got), goldenPath, len(exp))
}
