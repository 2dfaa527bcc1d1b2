// Command benchmark is the repository's measured end-to-end load
// benchmark. It builds each workload's topology in one process over
// real loopback TCP listeners — ORAM shard servers, device, device
// service, optional gateway, client sessions — drives it, checks every
// reply against the baseline.Geth oracle, and reports end-to-end
// metrics (tracing off) and a per-layer ledger (traced run). See
// README.md in this directory.
//
//	go run ./benchmark                          every workload, both runs, full report
//	go run ./benchmark -runs 10 -json out.json  ten seeds per workload, saved for -compare
//	go run ./benchmark -runs 10 -json benchmark/baseline.json -trajectory benchmark/trajectory.jsonl
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -aa -runs 5              two sets on the same binary, compared
//	go run ./benchmark -spec                    print BENCHMARK.json from the metric tables
//
// The driver contract (BENCHMARK.json) runs one workload per process:
//
//	go run ./benchmark --workload mix_full --seed 7 --seconds 20 --trace 0
//
// which prints the metrics by name and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	out      string
	runs     int
	jsonPath string
	trajPath string
	compare  bool
	aa       bool
	spec     bool
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload in this process and end with the result JSON line")
	fs.Int64Var(&o.seed, "seed", 19145194, "seeds the world, bundle selection and the open-loop arrival schedule")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 = timed phase (end-to-end metrics), 1 = traced run (per-layer metrics)")
	fs.BoolVar(&o.smoke, "smoke", false, "short phases and few ladder operations: exercises bring-up, shutdown and the oracle, measures nothing")
	fs.StringVar(&o.out, "out", defaultOutDir, "directory for the Chrome trace-event files of traced runs")
	fs.IntVar(&o.runs, "runs", 1, "timed runs per workload, each with the next seed (spread needs at least 4)")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full report to this file (input of -compare)")
	fs.StringVar(&o.trajPath, "trajectory", "", "also append this run's medians as one row to this file (benchmark/trajectory.jsonl)")
	fs.BoolVar(&o.compare, "compare", false, "compare two report files: -compare old.json new.json")
	fs.BoolVar(&o.aa, "aa", false, "run the full set twice on this binary and compare the two (self-agreement)")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as generated from the metric tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case o.spec:
		doc, err := benchmarkJSON()
		if err != nil {
			return fatal(err)
		}
		os.Stdout.Write(doc)
		return 0
	case o.compare:
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-compare needs two report files, got %d", fs.NArg()))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case o.workload != "":
		return runOne(o)
	case o.aa:
		return runAA(o)
	default:
		rep, code := runAll(o)
		if o.jsonPath != "" {
			if err := rep.write(o.jsonPath); err != nil {
				return fatal(err)
			}
		}
		if o.trajPath != "" && code == 0 {
			if err := rep.appendTrajectory(o.trajPath); err != nil {
				return fatal(err)
			}
		}
		return code
	}
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// defaultOutDir keeps traces inside the checkout, under the directory
// the root .gitignore already excludes for build output.
const defaultOutDir = ".bench_build/traces"

// config turns the flags into one run's settings.
func (o options) config() runConfig {
	cfg := runConfig{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace != 0,
		WarmUp:     2 * time.Second,
		Setups:     9,
		MinRungOps: 10,
		OutDir:     o.out,
	}
	if o.smoke {
		cfg.Seconds = 1
		cfg.WarmUp = 200 * time.Millisecond
		cfg.Setups = 1
		cfg.MinRungOps = 3
	}
	return cfg
}

// runOne is the driver contract: one workload, one run, in this
// process. The metrics are printed by name with unit and bound, then
// the result object as the last line of standard output.
func runOne(o options) int {
	cfg := o.config()
	res, err := runWorkload(cfg)
	if err != nil {
		return fatal(err)
	}
	printRun(os.Stdout, cfg, res)
	line, err := json.Marshal(res)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	// A run that produced its result exits 0 even when requests failed:
	// the verdict is in the line (correct, failed), and runAll acts on it.
	return 0
}
