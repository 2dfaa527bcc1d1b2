package hardtape

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runKey matches a workflow step's `run:` key and captures its value.
var runKey = regexp.MustCompile(`^\s*(?:-\s+)?run:\s*(.*)$`)

// quotedRunTail returns what follows the closing quote of a `run:`
// value that opens with a quote ("" when the value is well formed or
// not quoted). YAML ends a quoted scalar at its closing quote, so
// anything after it but a comment makes the file unparseable: GitHub
// rejects the whole workflow.
func quotedRunTail(value string) string {
	if value == "" || (value[0] != '"' && value[0] != '\'') {
		return ""
	}
	q := value[0]
	for i := 1; i < len(value); i++ {
		switch {
		case q == '"' && value[i] == '\\':
			i++ // escaped character
		case q == '\'' && value[i] == '\'' && i+1 < len(value) && value[i+1] == '\'':
			i++ // '' is an escaped single quote
		case value[i] == q:
			if tail := strings.TrimSpace(value[i+1:]); tail != "" && !strings.HasPrefix(tail, "#") {
				return tail
			}
			return ""
		}
	}
	return "" // a multi-line quoted scalar continues on the next line
}

func TestQuotedRunTail(t *testing.T) {
	for value, want := range map[string]string{
		`go test ./...`:                          "",
		`"$RUNNER_TEMP/lint" ./...`:              `./...`,
		`"$RUNNER_TEMP/lint ./..."`:              "",
		`"a \" b" # comment`:                     "",
		`'it''s' x`:                              "x",
		`'it''s'`:                                "",
		`|`:                                      "",
		`"$RUNNER_TEMP/hardtape-lint" -report=x`: "-report=x",
	} {
		if got := quotedRunTail(value); got != want {
			t.Errorf("quotedRunTail(%q) = %q, want %q", value, got, want)
		}
	}
}

// TestWorkflowRunValuesParse fails on any workflow `run:` value that
// opens with a quote and continues past its closing quote — the one
// YAML mistake a shell-minded edit makes, and which no Go test would
// otherwise notice because CI simply never starts.
func TestWorkflowRunValuesParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow files found")
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			m := runKey.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			if tail := quotedRunTail(m[1]); tail != "" {
				t.Errorf("%s:%d: run value continues past its closing quote (%q); use a | block or quote the whole command", f, n+1, tail)
			}
		}
	}
}
