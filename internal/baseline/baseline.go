// Package baseline implements the two comparison systems of the
// paper's evaluation: "Geth" — the plain software EVM service running
// on a fast server with all data prefetched to main memory (no
// security features) — and TSC-VEE, the TrustZone single-contract
// virtual execution environment (Jian et al., TPDS'23) that prefetches
// one contract's code and storage into secure memory and cannot make
// cross-account contract calls.
//
// Both reuse the same interpreter core as HarDTAPE (internal/evm);
// they differ in their data paths, restrictions, and timing models —
// exactly the comparison the paper draws in Figs. 4 and 5.
package baseline

import (
	"errors"
	"fmt"
	"time"

	"hardtape/internal/evm"
	"hardtape/internal/simclock"
	"hardtape/internal/state"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
)

// Result summarizes a baseline bundle execution.
type Result struct {
	Trace *tracer.BundleTrace
	// VirtualTime is the modeled wall time on the baseline's hardware.
	VirtualTime time.Duration
	GasUsed     uint64
	Steps       uint64
}

// Geth is the unprotected software pre-executor baseline. All referred
// data sits in the server's main memory (paper §VI experiment setup).
type Geth struct {
	backing state.Reader
	block   evm.BlockContext
}

// NewGeth builds the baseline over a world-state reader.
func NewGeth(backing state.Reader, block evm.BlockContext) *Geth {
	return &Geth{backing: backing, block: block}
}

// ExecuteBundle simulates a bundle the way the Geth-based service
// does: one overlay, sequential transactions, no crypto, no ORAM.
func (g *Geth) ExecuteBundle(bundle *types.Bundle) (*Result, error) {
	overlay := state.NewOverlay(g.backing)
	e := evm.New(g.block, overlay)

	tr := tracer.New(false)
	var steps uint64
	counter := &evm.Hooks{OnStep: func(evm.StepInfo) { steps++ }}
	e.Hooks = evm.CombineHooks(tr.Hooks(), counter)

	var gasUsed uint64
	for i, tx := range bundle.Txs {
		tr.BeginTx(tx.Hash())
		res, err := e.ApplyTransaction(tx)
		if err != nil {
			return nil, fmt.Errorf("baseline: geth tx %d: %w", i, err)
		}
		tr.EndTx(res)
		gasUsed += res.GasUsed
	}
	return &Result{
		Trace:       tr.Bundle(),
		VirtualTime: time.Duration(steps) * simclock.DefaultCalibration().GethTimePerOp,
		GasUsed:     gasUsed,
		Steps:       steps,
	}, nil
}

// ErrCrossContractCall is TSC-VEE's documented limitation: it runs a
// single Confidential Smart Contract and "does not support
// cross-account contract calls" (paper §VI-C).
var ErrCrossContractCall = errors.New("baseline: tsc-vee does not support cross-account contract calls")

// TSCVEE models the TrustZone single-contract TEE. The contract's
// bytecode and storage are prefetched into secure memory before
// execution (a fixed per-session cost), after which per-operation
// costs match a software EVM on the TrustZone core.
type TSCVEE struct {
	backing state.Reader
	block   evm.BlockContext
	// Contract is the single contract admitted to the enclave.
	Contract types.Address
}

// NewTSCVEE builds the model for one admitted contract.
func NewTSCVEE(backing state.Reader, block evm.BlockContext, contract types.Address) *TSCVEE {
	return &TSCVEE{backing: backing, block: block, Contract: contract}
}

// ExecuteBundle runs a bundle against the single admitted contract.
// Any frame that leaves the contract (other than plain value
// transfers) fails with ErrCrossContractCall.
func (t *TSCVEE) ExecuteBundle(bundle *types.Bundle) (*Result, error) {
	overlay := state.NewOverlay(t.backing)
	e := evm.New(t.block, overlay)

	tr := tracer.New(false)
	var steps uint64
	var crossCall bool
	guard := &evm.Hooks{
		OnStep: func(evm.StepInfo) { steps++ },
		OnCallEnter: func(info evm.CallFrameInfo) {
			// Depth 0 is the transaction's entry call; deeper frames
			// must stay within the admitted contract.
			if info.Depth > 0 && info.CodeAddr != t.Contract && info.CodeSize > 0 {
				crossCall = true
			}
		},
	}
	e.Hooks = evm.CombineHooks(tr.Hooks(), guard)

	var gasUsed uint64
	for i, tx := range bundle.Txs {
		if tx.To == nil || *tx.To != t.Contract {
			return nil, fmt.Errorf("baseline: tsc-vee tx %d targets %v: %w",
				i, tx.To, ErrCrossContractCall)
		}
		tr.BeginTx(tx.Hash())
		res, err := e.ApplyTransaction(tx)
		if err != nil {
			return nil, fmt.Errorf("baseline: tsc-vee tx %d: %w", i, err)
		}
		if crossCall {
			return nil, ErrCrossContractCall
		}
		tr.EndTx(res)
		gasUsed += res.GasUsed
	}
	cal := simclock.DefaultCalibration()
	return &Result{
		Trace:       tr.Bundle(),
		VirtualTime: cal.TSCVEEPrefetch + time.Duration(steps)*cal.TSCVEETimePerOp,
		GasUsed:     gasUsed,
		Steps:       steps,
	}, nil
}
