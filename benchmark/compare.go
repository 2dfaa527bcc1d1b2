package main

import (
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the -compare table.
type comparison struct {
	Workload, Metric string
	Old, New         float64 // medians
	// Worse is the change in the metric's bad direction as a share of
	// the old median (negative = improved).
	Worse float64
	// Spread is the wider of the two sides' quartile distances as a
	// share of their median; 0 when a side has fewer than four runs.
	Spread  float64
	Bound   float64
	Verdict string
}

// compareMetric applies the benchmark's own bound to one metric's runs
// on both sides: worse beyond the bound is a regression; a spread wider
// than the bound cannot resolve a change of that size, so the metric is
// unresolved — unless every new run reads better than every old one.
func compareMetric(def metricDef, oldRuns, newRuns []float64) comparison {
	c := comparison{Metric: def.Name, Old: median(oldRuns), New: median(newRuns), Bound: def.Bound}
	if c.Old != 0 {
		c.Worse = (c.New - c.Old) / c.Old
		if def.Better == "higher" {
			c.Worse = -c.Worse
		}
	}
	c.Spread = iqrSpread(oldRuns)
	if s := iqrSpread(newRuns); s > c.Spread {
		c.Spread = s
	}
	switch {
	case c.Spread > def.Bound && !allBetter(def, oldRuns, newRuns):
		c.Verdict = verdictUnresolved
	case c.Worse > def.Bound:
		c.Verdict = verdictRegression
	default:
		c.Verdict = verdictOK
	}
	return c
}

// allBetter reports whether every new run reads better than every old.
func allBetter(def metricDef, oldRuns, newRuns []float64) bool {
	for _, n := range newRuns {
		for _, o := range oldRuns {
			if def.Better == "higher" && n <= o || def.Better != "higher" && n >= o {
				return false
			}
		}
	}
	return true
}

// compareReports prints one row per (workload, end-to-end metric) and
// returns the exit code: non-zero on any regression.
func compareReports(w io.Writer, oldRep, newRep *report) int {
	fmt.Fprintf(w, "old: commit %s, %s, nproc %d    new: commit %s, %s, nproc %d\n",
		oldRep.Machine.Commit, oldRep.Machine.GoVersion, oldRep.Machine.NProc,
		newRep.Machine.Commit, newRep.Machine.GoVersion, newRep.Machine.NProc)
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %9s %8s %7s  %s\n",
		"workload", "metric", "old", "new", "worse", "spread", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, spec := range workloads {
		for _, def := range endToEnd {
			oldRuns := oldRep.values(spec.Name, def.Name, false)
			newRuns := newRep.values(spec.Name, def.Name, false)
			if len(oldRuns) == 0 || len(newRuns) == 0 {
				fmt.Fprintf(w, "%-14s %-18s %12s %12s  (missing on one side)\n", spec.Name, def.Name, "-", "-")
				unresolved++
				continue
			}
			c := compareMetric(def, oldRuns, newRuns)
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				spec.Name, def.Name, c.Old, c.New, c.Worse*100, c.Spread*100, c.Bound*100, c.Verdict)
			switch c.Verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

func compareFiles(oldPath, newPath string) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return fatal(err)
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return fatal(err)
	}
	return compareReports(os.Stdout, oldRep, newRep)
}
