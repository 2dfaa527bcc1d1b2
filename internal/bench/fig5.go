package bench

import (
	"fmt"
	"time"

	"hardtape/internal/baseline"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// fig5 reproduces the local-execution microbenchmarks: Arithmetic
// (per ALU loop iteration), Storage (per warm SLOAD/SSTORE pair), and
// Transfer (per warm ERC-20 transfer call). One row is one bar group of
// Fig. 5: the per-operation time of one benchmark on the three
// platforms, with all data found locally after first access (warm
// caches — "no security overhead" case, §VI-C).
//
// Per-operation times are *marginal*: T(2n) − T(n) over n additional
// operations, cancelling fixed per-bundle costs (attestation crypto,
// first-touch ORAM fetches), which is exactly the paper's
// "all used data are found locally" setting.
func fig5(env *Env) (Table, error) {
	t := Table{
		Name:  "fig5",
		Title: "FIG. 5 — execution time per operation, all data local (warm caches)",
		Note: "paper shape: no significant platform difference except Geth slower on Transfer\n" +
			notePrefetchDraws,
	}

	// Each benchmark compares a bundle of one tx against a bundle of
	// two identical txs: the second tx finds all code and storage warm
	// (same contract, same record set), so the delta isolates the warm
	// per-operation cost.
	mkPair := func(to types.Address, data []byte, gas uint64) (*types.Bundle, *types.Bundle, error) {
		from := env.World.EOAs[0]
		tx0, err := env.World.SignedTxAt(from, 0, &to, 0, data, gas)
		if err != nil {
			return nil, nil, err
		}
		tx0b, err := env.World.SignedTxAt(from, 0, &to, 0, data, gas)
		if err != nil {
			return nil, nil, err
		}
		tx1, err := env.World.SignedTxAt(from, 1, &to, 0, data, gas)
		if err != nil {
			return nil, nil, err
		}
		one := &types.Bundle{Txs: []*types.Transaction{tx0}}
		two := &types.Bundle{Txs: []*types.Transaction{tx0b, tx1}}
		return one, two, nil
	}

	for _, m := range []struct {
		name string
		ops  uint64 // operations the marginal cost is computed over
		to   types.Address
		data []byte
		gas  uint64
	}{
		// 2000 loop iterations per tx.
		{"Arithmetic", 2000, env.World.ArithLoop, workload.CalldataUint(2000), 30_000_000},
		// 32 consecutive records, warm on the second pass.
		{"Storage", 32, env.World.StorageHeavy, workload.CalldataUint(32), 5_000_000},
		// One warm ERC-20 transfer call.
		{"Transfer", 1, env.World.Tokens[0], workload.CalldataTransfer(env.World.EOAs[1], 1), 200_000},
	} {
		one, two, err := mkPair(m.to, m.data, m.gas)
		if err != nil {
			return t, err
		}
		row, err := measurePair(env, m.name, m.ops, one, two)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func measurePair(env *Env, name string, n uint64, small, big *types.Bundle) (Row, error) {
	row := Row{Name: name, Params: []Field{count("ops", n)}}

	// The software baselines; TSC-VEE admits a single contract, the
	// benchmark's target.
	target := *small.Txs[0].To
	for _, p := range []struct {
		name string
		exec interface {
			ExecuteBundle(*types.Bundle) (*baseline.Result, error)
		}
	}{
		{"geth", env.Geth},
		{"tscvee", baseline.NewTSCVEE(env.Chain.State(), workload.NewBlockContext(&env.Chain.Head().Header), target)},
	} {
		s, err := p.exec.ExecuteBundle(small)
		if err != nil {
			return row, fmt.Errorf("bench: fig5 %s %s: %w", name, p.name, err)
		}
		b, err := p.exec.ExecuteBundle(big)
		if err != nil {
			return row, fmt.Errorf("bench: fig5 %s %s: %w", name, p.name, err)
		}
		row.Modeled = append(row.Modeled, ns(p.name, perOp(b.VirtualTime-s.VirtualTime, n)))
	}

	// HarDTAPE -full (marginal cost cancels the per-bundle ORAM
	// first-touch and signature overheads).
	dev := env.Devices["-full"]
	hs, err := dev.Execute(small)
	if err != nil {
		return row, fmt.Errorf("bench: fig5 %s hardtape: %w", name, err)
	}
	hb, err := dev.Execute(big)
	if err != nil {
		return row, err
	}
	if hs.Aborted != nil || hb.Aborted != nil {
		return row, fmt.Errorf("bench: fig5 %s hardtape aborted: %v/%v", name, hs.Aborted, hb.Aborted)
	}
	row.Modeled = append(row.Modeled, ns("hardtape", perOp(hb.VirtualTime-hs.VirtualTime, n)))
	return row, nil
}

func perOp(delta time.Duration, n uint64) time.Duration {
	if delta < 0 {
		delta = 0
	}
	return delta / time.Duration(n)
}
