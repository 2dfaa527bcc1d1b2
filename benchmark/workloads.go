package main

import (
	"math/rand"

	"hardtape/internal/core"
	"hardtape/internal/evm"
	"hardtape/internal/evm/asm"
	"hardtape/internal/keccak"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// workloadSpec is one benchmark workload: the topology it needs, how
// it is driven, and how its bundles are generated from the seed.
type workloadSpec struct {
	Name string
	// Why is the one-line rationale BENCHMARK.json carries.
	Why string

	Features core.Features
	HEVMs    int
	Lanes    int
	// Shards is the number of remote ORAM shard servers (0 without ORAM).
	Shards int
	World  workload.Config
	Front  front
	// QueueDepth and ColdHandshakeLimit configure the gateway, if any.
	QueueDepth         int
	ColdHandshakeLimit int

	// Clients is the closed-loop client count C (one session and one
	// goroutine each). OpenRate > 0 adds an open-loop phase of that many
	// bundles per second to the traced run, over the same C sessions.
	Clients  int
	OpenRate float64
	// Churn makes every request a full visit: TCP connect, handshake
	// (one cold Dial, then ColdEvery-1 warm Resumes), one bundle, close.
	Churn     bool
	ColdEvery int

	// RefShare is the share of the workload's request time that slows
	// with the reference kernel (refkernel.go), fitted on recorded hours
	// of calm and noisy machine: 1 where sender recovery and the codecs
	// dominate; less on oram_scatter, whose ~130 ORAM round trips per
	// transaction are wake-ups and syscalls that barely feel the memory
	// system (between a calm and a noisy hour its sender recovery slowed
	// 33-53 % and its ORAM transport 7 %).
	RefShare float64

	// Population is how many distinct bundles are generated.
	Population int
	// prepareWorld edits the world before the node is built (contract
	// deployment); generate draws the bundles.
	prepareWorld func(w *workload.World) error
	generate     func(t *topology, rng *rand.Rand, n int) ([]*types.Bundle, error)
}

// openLoopLimitMs is the latency limit of the open-loop phase: a
// request that fails, is refused or takes longer counts as missed.
const openLoopLimitMs = 50.0

// workloads lists the benchmark's workloads; names are stable.
var workloads = []*workloadSpec{
	{
		Name:     "mix_full",
		Why:      "Table I archetype mix as single-tx bundles through gateway, service, -full device and 2 remote ORAM shards: every layer at once, closed loop C=2 (traced run adds an open-loop phase)",
		Features: core.ConfigFull, HEVMs: 3, Shards: 2,
		World:      workload.Config{EOAs: 24, Tokens: 4, DEXes: 2},
		Front:      frontGatewayRemote,
		QueueDepth: 64,
		Clients:    2, Population: 256, RefShare: 1,
		OpenRate: 50,
		generate: generateMix,
	},
	{
		Name:     "oram_scatter",
		Why:      "each tx SLOADs 48-78 slots on distinct pages = that many real ORAM accesses: ORAM client + wire dominate and two clients contend on the device-wide ORAM lock; no gateway",
		Features: core.ConfigFull, HEVMs: 3, Shards: 2,
		World:   workload.Config{EOAs: 24, Tokens: 4, DEXes: 2},
		Front:   frontDevice,
		Clients: 2, Population: 256, RefShare: 0.7,
		prepareWorld: deployScatterReader,
		generate:     generateScatter,
	},
	{
		Name:     "mev_lanes",
		Why:      "16-tx searcher bundles at conflict rates 0/0.25/0.5 on 4 lanes, one client, no ORAM, no gateway: sender recovery, scheduler, interpreter and the largest traces; ORAM changes must show nothing",
		Features: core.ConfigE, HEVMs: 2, Lanes: 4,
		World: workload.Config{EOAs: 24, Tokens: 4, DEXes: 2},
		Front: frontDevice,
		// One client: a bundle's four lanes already keep both cores busy,
		// and a second bundle in flight only adds scheduler noise.
		Clients: 1, Population: 24, RefShare: 1,
		generate: generateMEV,
	},
	{
		Name:     "session_churn",
		Why:      "every request is connect + handshake (1 cold Dial per 9 warm Resumes) + one ERC-20 transfer + close via the gateway: many small handshake frames instead of few large traces",
		Features: core.ConfigE, HEVMs: 3,
		World:              workload.Config{EOAs: 24, Tokens: 4, DEXes: 2},
		Front:              frontGatewayLocal,
		QueueDepth:         64,
		ColdHandshakeLimit: 4,
		Clients:            2, Population: 64, RefShare: 1,
		Churn: true, ColdEvery: 10,
		generate: generateTransfers,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// singleTx wraps one transaction as a bundle ("each transaction as a
// separate bundle", the paper's Fig. 4 condition).
func singleTx(tx *types.Transaction) *types.Bundle {
	return &types.Bundle{Txs: []*types.Transaction{tx}}
}

// canonicalNonce is the sender's nonce in the pinned state every bundle
// executes against.
func canonicalNonce(t *topology, sender types.Address) uint64 {
	if acct, ok := t.chain.State().Account(sender); ok {
		return acct.Nonce
	}
	return 0
}

// generateMix draws n transactions from the generator's Table I
// archetype mix and rebuilds each at its sender's canonical nonce (the
// generator tracks nonces as if its transactions were mined in order,
// but every bundle runs against the same pinned state) — what
// bench.Env.EvalBundles does.
func generateMix(t *topology, _ *rand.Rand, n int) ([]*types.Bundle, error) {
	bundles := make([]*types.Bundle, 0, n)
	for i := 0; i < n; i++ {
		tx, _, err := t.world.GenerateTx()
		if err != nil {
			return nil, err
		}
		sender, err := tx.Sender()
		if err != nil {
			return nil, err
		}
		rebuilt, err := t.world.SignedTxAt(sender, canonicalNonce(t, sender), tx.To, tx.Value.Uint64(), tx.Data, tx.GasLimit)
		if err != nil {
			return nil, err
		}
		bundles = append(bundles, singleTx(rebuilt))
	}
	return bundles, nil
}

// Scatter reader: a benchmark-owned contract with scatterSlots storage
// slots at keys i<<5, so every slot sits on its own 32-record page.
const (
	scatterSlots   = 256
	scatterMinRead = 48
	scatterMaxRead = 78
)

// scatterReaderRuntime assembles the contract. Calldata is two words,
// (start, n); it sums SLOAD(((start+j) & 0xff) << 5) for j in [0, n)
// and returns the sum — n reads on n distinct pages, the way hashed
// mapping slots scatter real ERC-20 state.
func scatterReaderRuntime() []byte {
	const (
		dup2  = evm.DUP1 + 1
		dup3  = evm.DUP1 + 2
		swap2 = evm.SWAP1 + 1
	)
	a := asm.New()
	a.Push(0).Op(evm.CALLDATALOAD)  // [start]
	a.Push(32).Op(evm.CALLDATALOAD) // [start, n]
	a.Push(0)                       // [start, n, acc]
	a.Label("loop")
	a.Op(dup2, evm.ISZERO).JumpI("done")
	a.Op(dup3).Push(scatterSlots-1).Op(evm.AND).Push(5).Op(evm.SHL, evm.SLOAD) // [start, n, acc, v]
	a.Op(evm.ADD)                                                              // [start, n, acc]
	a.Op(swap2).Push(1).Op(evm.ADD, swap2)                                     // start++
	a.Op(evm.SWAP1).Push(1).Op(evm.SWAP1, evm.SUB, evm.SWAP1)                  // n--
	a.Jump("loop")
	a.Label("done")
	a.Push(0).Op(evm.MSTORE).ReturnData(0, 32)
	return a.MustAssemble()
}

// scatterReaderAddr is where deployScatterReader puts the contract
// (derived from the code hash, as the generator's own deploys are).
func scatterReaderAddr() types.Address {
	h := keccak.Sum256(scatterReaderRuntime())
	return types.BytesToAddress(h[:20])
}

// deployScatterReader installs the contract and its populated slots
// into the world state before the node commits to it. Pages the pager
// has never seen make no ORAM access, hence the pre-population.
func deployScatterReader(w *workload.World) error {
	h := w.State.SetCode(scatterReaderRuntime())
	addr := types.BytesToAddress(h[:20])
	acct := types.NewAccount()
	acct.CodeHash = h
	if err := w.State.SetAccount(addr, acct); err != nil {
		return err
	}
	for i := 0; i < scatterSlots; i++ {
		slot := types.BytesToHash([]byte{byte(i >> 3), byte(i << 5)})
		val := types.BytesToHash([]byte{byte(i>>8) + 1, byte(i)})
		if err := w.State.SetStorage(addr, slot, val); err != nil {
			return err
		}
	}
	return nil
}

func generateScatter(t *topology, rng *rand.Rand, n int) ([]*types.Bundle, error) {
	to := scatterReaderAddr()
	bundles := make([]*types.Bundle, 0, n)
	for i := 0; i < n; i++ {
		sender := t.world.EOAs[rng.Intn(len(t.world.EOAs))]
		start := uint64(rng.Intn(scatterSlots))
		reads := uint64(scatterMinRead + rng.Intn(scatterMaxRead-scatterMinRead+1))
		data := append(workload.CalldataUint(start), workload.CalldataUint(reads)...)
		tx, err := t.world.SignedTxAt(sender, canonicalNonce(t, sender), &to, 0, data, 600_000)
		if err != nil {
			return nil, err
		}
		bundles = append(bundles, singleTx(tx))
	}
	return bundles, nil
}

// mevBundleSize and mevConflictRates shape the searcher bundles.
const mevBundleSize = 16

var mevConflictRates = []float64{0, 0.25, 0.5}

func generateMEV(t *topology, _ *rand.Rand, n int) ([]*types.Bundle, error) {
	bundles := make([]*types.Bundle, 0, n)
	for i := 0; i < n; i++ {
		b, err := t.world.MEVBundle(mevBundleSize, mevConflictRates[i%len(mevConflictRates)])
		if err != nil {
			return nil, err
		}
		bundles = append(bundles, b)
	}
	return bundles, nil
}

func generateTransfers(t *topology, rng *rand.Rand, n int) ([]*types.Bundle, error) {
	bundles := make([]*types.Bundle, 0, n)
	for i := 0; i < n; i++ {
		sender := t.world.EOAs[rng.Intn(len(t.world.EOAs))]
		to := t.world.EOAs[rng.Intn(len(t.world.EOAs))]
		token := t.world.Tokens[rng.Intn(len(t.world.Tokens))]
		tx, err := t.world.SignedTxAt(sender, canonicalNonce(t, sender), &token, 0,
			workload.CalldataTransfer(to, uint64(rng.Intn(100)+1)), 120_000)
		if err != nil {
			return nil, err
		}
		bundles = append(bundles, singleTx(tx))
	}
	return bundles, nil
}

// stripSenders rebuilds a bundle's transactions from their exported
// fields only, dropping the memoized sender — the state a bundle is in
// after crossing the wire, so executing it pays signature recovery.
func stripSenders(b *types.Bundle) *types.Bundle {
	out := &types.Bundle{StateBlock: b.StateBlock, Txs: make([]*types.Transaction, len(b.Txs))}
	for i, tx := range b.Txs {
		out.Txs[i] = &types.Transaction{
			Nonce: tx.Nonce, GasPrice: tx.GasPrice, GasLimit: tx.GasLimit,
			To: tx.To, Value: tx.Value, Data: tx.Data,
			R: tx.R, S: tx.S, V: tx.V,
		}
	}
	return out
}

func txCount(bundles []*types.Bundle) int {
	n := 0
	for _, b := range bundles {
		n += len(b.Txs)
	}
	return n
}
