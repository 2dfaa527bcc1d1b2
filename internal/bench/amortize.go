package bench

import (
	"fmt"
	"time"

	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// amortization measures -full per-transaction time as the bundle size
// grows: the per-bundle ECDSA round (~80 ms) spreads over all
// transactions. It is the §VI-C observation "more transactions in a
// bundle lead to less time-consuming ECDSA verifications and
// signatures" — the single-tx-per-bundle Fig. 4 numbers are therefore a
// lower bound on throughput.
func amortization(env *Env) (Table, error) {
	t := Table{
		Name:  "amortization",
		Title: "§VI-C — bundle amortization (per-bundle ECDSA spread over transactions)",
		Note: "paper: single-tx bundles are the throughput lower bound; the ~80 ms\n" +
			"signature round is paid once per bundle regardless of size",
	}
	dev := env.Devices["-full"]
	token := env.World.Tokens[0]
	from := env.World.EOAs[0]

	for _, n := range []int{1, 2, 4, 8, 16} {
		bundle := &types.Bundle{}
		for i := 0; i < n; i++ {
			tx, err := env.World.SignedTxAt(from, uint64(i), &token, 0,
				workload.CalldataTransfer(env.World.EOAs[1+i%4], uint64(i+1)), 200_000)
			if err != nil {
				return t, err
			}
			bundle.Txs = append(bundle.Txs, tx)
		}
		res, err := dev.Execute(bundle)
		if err != nil {
			return t, fmt.Errorf("bench: amortization n=%d: %w", n, err)
		}
		if res.Aborted != nil {
			return t, fmt.Errorf("bench: amortization n=%d aborted: %v", n, res.Aborted)
		}
		t.Rows = append(t.Rows, Row{
			Name:    fmt.Sprintf("%d-tx", n),
			Params:  []Field{count("bundle_size", n)},
			Modeled: []Field{ns("total", res.VirtualTime), ns("per_tx", res.VirtualTime/time.Duration(n))},
		})
	}
	return t, nil
}
