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
// modeled fields depend on (-seed, -n) alone. Virtual-clock timings use
// the calibration table in internal/simclock (see DESIGN.md); shapes,
// not absolute values, are the reproduction target.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"hardtape"
	"hardtape/internal/bench"
	"hardtape/internal/types"
	"hardtape/internal/workload"
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
		telem  = fs.Bool("telemetry", false, "drive an instrumented -full pipeline and dump the registry JSON snapshot on stdout")
		asJSON = fs.Bool("json", false, "emit results as JSON on stdout (progress goes to stderr)")
		n      = fs.Int("n", 100, "transactions per experiment")
		seed   = fs.Int64("seed", bench.DefaultEnvConfig().Seed, "workload seed (paper's first block number)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchtab -run name[,name…]|all [-n N] [-seed S] [-json] | benchtab -telemetry [-n N]\n")
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
	if *telem {
		// Telemetry mode is its own run: stdout carries exactly the
		// registry snapshot (the same document /metrics.json serves).
		return runTelemetry(cfg, *n, stdout, stderr)
	}
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

// runTelemetry drives n transactions through a fully instrumented
// -full pipeline — attestation, DHKE, sealed bundles, ORAM-backed
// world state — and writes the telemetry registry's JSON snapshot to
// stdout. It is the same document the admin endpoint's /metrics.json
// serves, so dashboards and CI artifacts share one schema.
func runTelemetry(cfg bench.EnvConfig, n int, stdout, stderr io.Writer) error {
	reg := hardtape.NewTelemetry()
	opts := hardtape.DefaultTestbedOptions()
	opts.Seed = cfg.Seed
	opts.EOAs = cfg.EOAs
	opts.Tokens = cfg.Tokens
	opts.DEXes = cfg.DEXes
	opts.HEVMs = cfg.HEVMs
	opts.Features = hardtape.ConfigFull
	opts.Telemetry = reg

	fmt.Fprintf(stderr, "Building instrumented -full testbed (seed %d)...\n", cfg.Seed)
	tb, err := hardtape.NewTestbed(opts)
	if err != nil {
		return err
	}
	svc := hardtape.NewService(tb.Device)
	userConn, spConn := net.Pipe()
	defer userConn.Close()
	go func() {
		defer spConn.Close()
		//hardtape:faulterr-ok the session ends when the driver closes the pipe; its EOF is the shutdown signal
		_ = svc.ServeConn(spConn)
	}()
	client, err := hardtape.Dial(userConn, tb.Verifier(), true)
	if err != nil {
		return err
	}

	// One 4-tx bundle per EOA, replayed until n transactions ran
	// (pre-execution never commits, so replays stay valid).
	const txsPerBundle = 4
	token := tb.World.Tokens[0]
	eoaList := tb.World.EOAs
	bundles := make([]*types.Bundle, len(eoaList))
	for i := range bundles {
		txs := make([]*types.Transaction, txsPerBundle)
		for j := range txs {
			tx, err := tb.World.SignedTxAt(eoaList[i], uint64(j), &token, 0,
				workload.CalldataTransfer(eoaList[(i+1)%len(eoaList)], 7), 200_000)
			if err != nil {
				return err
			}
			txs[j] = tx
		}
		bundles[i] = &types.Bundle{Txs: txs}
	}
	ran := 0
	for i := 0; ran < n; i++ {
		res, err := client.PreExecute(bundles[i%len(bundles)])
		if err != nil {
			return fmt.Errorf("bundle %d: %w", i, err)
		}
		if res.AbortReason != "" {
			return fmt.Errorf("bundle %d aborted: %s", i, res.AbortReason)
		}
		ran += txsPerBundle
	}
	fmt.Fprintf(stderr, "Pre-executed %d txs; dumping registry snapshot\n", ran)
	return reg.WriteJSON(stdout)
}
