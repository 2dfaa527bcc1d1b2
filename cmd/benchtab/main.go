// Command benchtab regenerates every table and figure of the paper's
// evaluation section (§VI) from the software simulation, as named
// sweeps of the internal/bench registry:
//
//	benchtab -run all
//	benchtab -run fig4 -n 500
//	benchtab -run table1,correctness,scalability
//	benchtab -run all -json > results.json
//
// Each sweep runs against its own freshly built environment, so its
// output does not depend on which sweeps ran before it. Every number is
// the model: virtual-clock timings use the calibration table in
// internal/simclock, and every field repeats exactly at one (-seed, -n)
// (DESIGN.md §9); shapes, not absolute values, are the reproduction
// target. Host wall clock and allocations are measured by benchmark/
// and the go-test benchmarks, never here.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hardtape/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
}

// report is the -json document.
type report struct {
	Seed   int64         `json:"seed"`
	N      int           `json:"n"`
	Tables []bench.Table `json:"tables"`
}

// selectSweeps resolves a -run value: "all" or a comma-separated list
// of registry names, run in the order given.
func selectSweeps(spec string) ([]bench.Sweep, error) {
	if spec == "all" {
		return bench.Sweeps, nil
	}
	var out []bench.Sweep
	for _, name := range strings.Split(spec, ",") {
		sw, ok := bench.Find(strings.TrimSpace(name))
		if !ok {
			valid := make([]string, len(bench.Sweeps))
			for i, s := range bench.Sweeps {
				valid[i] = s.Name
			}
			return nil, fmt.Errorf("unknown sweep %q (valid: %s, or all)", name, strings.Join(valid, ", "))
		}
		out = append(out, sw)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names  = fs.String("run", "", "sweeps to run: name[,name…] or all (names below)")
		asJSON = fs.Bool("json", false, "emit results as JSON on stdout (progress goes to stderr)")
		n      = fs.Int("n", 100, "transactions per experiment")
		seed   = fs.Int64("seed", bench.DefaultEnvConfig().Seed, "workload seed (paper's first block number)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchtab -run name[,name…]|all [-n N] [-seed S] [-json]\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nsweeps:\n")
		for _, s := range bench.Sweeps {
			fmt.Fprintf(stderr, "  %-13s %s\n", s.Name, s.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	cfg := bench.DefaultEnvConfig()
	cfg.Seed = *seed
	if *names == "" {
		fs.Usage()
		return fmt.Errorf("no sweep selected (try -run all)")
	}
	sweeps, err := selectSweeps(*names)
	if err != nil {
		return err
	}

	// Progress goes to stderr: in -json mode stdout carries exactly one
	// JSON document.
	out := report{Seed: *seed, N: *n}
	for _, sw := range sweeps {
		fmt.Fprintf(stderr, "running %s...\n", sw.Name)
		tables, err := sw.RunFresh(cfg, *n)
		if err != nil {
			return fmt.Errorf("%s: %w", sw.Name, err)
		}
		out.Tables = append(out.Tables, tables...)
		for _, t := range tables {
			if !*asJSON {
				fmt.Fprintf(stdout, "%s\n────────────────────────────────────────────────────────────\n", t.Render())
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	return nil
}
