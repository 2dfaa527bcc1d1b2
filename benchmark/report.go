package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// machineNote says where a report's numbers come from.
type machineNote struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func thisMachine() machineNote {
	// `go build` stamps the checkout's revision; a build with uncommitted
	// changes (this benchmark's own first run) says so.
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+uncommitted"
			}
		}
		commit += dirty
	}
	return machineNote{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: commit, Date: time.Now().UTC().Format("2006-01-02"),
	}
}

// runRecord is one child run as kept in a report.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	runResult
}

// report is the full output of one command: what baseline.json holds
// and what -compare reads.
type report struct {
	Machine machineNote `json:"machine"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// trajectoryRow is one line of trajectory.jsonl: where and when, and
// per workload the median of every end-to-end metric over the report's
// timed runs.
type trajectoryRow struct {
	Machine machineNote                   `json:"machine"`
	Seed    int64                         `json:"seed"`
	Seconds float64                       `json:"seconds"`
	Runs    int                           `json:"runs_per_workload"`
	Medians map[string]map[string]float64 `json:"medians"`
}

// appendTrajectory adds the report's row to the in-repo perf trajectory.
func (r *report) appendTrajectory(path string) error {
	row := trajectoryRow{Machine: r.Machine, Seed: r.Seed, Seconds: r.Seconds, Medians: make(map[string]map[string]float64)}
	for _, spec := range workloads {
		row.Medians[spec.Name] = make(map[string]float64)
		for _, def := range endToEnd {
			vs := r.values(spec.Name, def.Name, false)
			if len(vs) == 0 {
				continue
			}
			row.Runs = len(vs)
			row.Medians[spec.Name][def.Name] = median(vs)
		}
	}
	line, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric's values over a workload's runs of one
// kind (timed or traced).
func (r *report) values(workload, metric string, trace bool) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload && run.Trace == trace {
			if v, ok := run.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// printRun writes one run's metrics by name with unit, direction and —
// for end-to-end metrics — the regression bound.
func printRun(w io.Writer, cfg runConfig, res *runResult) {
	kind, defs := "timed phase, tracing off", endToEnd
	if cfg.Trace {
		kind, defs = "traced run", perLayer
	}
	fmt.Fprintf(w, "%s  seed %d  %gs %s  attempted %d  failed %d\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, kind, res.Attempted, res.Failed)
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		if !ok {
			continue
		}
		bound := ""
		if def.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", def.Bound*100)
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-7s %s is better%s\n", def.Name, v.Value, v.Unit, def.Better, bound)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// childRun re-executes this binary for one workload run, so set-up
// time, peak RSS and GC state are the workload's own. It passes the
// child's report through and parses the result line.
func childRun(o options, workload string, seed int64, trace bool) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-out", o.out,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return nil, fmt.Errorf("%s (seed %d, trace %v): %w", workload, seed, trace, err)
	}
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	fmt.Println(text[:cut+1])
	rec := &runRecord{Workload: workload, Seed: seed, Trace: trace}
	if err := json.Unmarshal([]byte(text[cut+1:]), &rec.runResult); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return rec, nil
}

// runAll runs every workload — o.runs timed runs on consecutive seeds
// and one traced run — each in its own child process. The exit code is
// non-zero when any request failed or a run could not complete.
func runAll(o options) (*report, int) {
	rep := &report{Machine: thisMachine(), Seed: o.seed, Seconds: o.seconds}
	fmt.Printf("machine: nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s\n\n",
		rep.Machine.NProc, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion,
		rep.Machine.GOOS, rep.Machine.GOARCH, rep.Machine.Commit)
	code := 0
	for _, spec := range workloads {
		for k := 0; k < o.runs+1; k++ {
			trace := k == o.runs
			seed := o.seed + int64(k)
			if trace {
				seed = o.seed
			}
			rec, err := childRun(o, spec.Name, seed, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
				continue
			}
			if !rec.Correct || rec.Failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: %s (seed %d): %d of %d requests failed\n",
					spec.Name, seed, rec.Failed, rec.Attempted)
				code = 1
			}
			rep.Runs = append(rep.Runs, *rec)
		}
	}
	if code == 0 {
		fmt.Println("every reply matched the oracle; failed_ratio = 0 on every workload")
	}
	return rep, code
}

// runAA runs the full set twice on this binary and compares the two:
// a benchmark that disagrees with itself cannot gate anything.
func runAA(o options) int {
	fmt.Println("=== set A ===")
	a, codeA := runAll(o)
	fmt.Println("=== set B ===")
	b, codeB := runAll(o)
	if codeA != 0 || codeB != 0 {
		return 1
	}
	return compareReports(os.Stdout, a, b)
}
