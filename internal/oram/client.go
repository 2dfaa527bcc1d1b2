package oram

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hardtape/internal/simclock"
	"hardtape/internal/telemetry"
)

// Op is the logical operation of an Access.
type Op int

// Access operations.
const (
	OpRead Op = iota + 1
	OpWrite
)

// BatchOp is one logical operation inside an AccessBatch.
type BatchOp struct {
	Op   Op
	ID   BlockID
	Data []byte // OpWrite payload, at most BlockSize
}

// Client errors.
var (
	// ErrShards rejects invalid shard configurations.
	ErrShards = errors.New("oram: invalid shard configuration")
	// ErrClientFailed is the fail-closed latch: an access died between
	// remapping its blocks and storing the evicted paths, so the trusted
	// state no longer matches the server's. Every later access returns
	// it (wrapping the original cause); the client must be rebuilt.
	ErrClientFailed = errors.New("oram: client failed closed after an access error")
)

// failedError is the latched error: ErrClientFailed wrapping the cause
// (the same error the faulting access would have returned bare).
type failedError struct{ cause error }

func (e *failedError) Error() string   { return ErrClientFailed.Error() + ": " + e.cause.Error() }
func (e *failedError) Unwrap() []error { return []error{ErrClientFailed, e.cause} }

// Client is the trusted Path ORAM client (on-chip in the Hypervisor)
// over K ≥ 1 independent trees, one per Server. Blocks are partitioned
// across the trees by a public hash of their id; every tree owns its
// private stash, position map, cryptor and scratch behind its own lock.
// The Client is safe for concurrent use: a tree is the unit of
// serialization, so each tree runs whole Path ORAM accesses one at a
// time while accesses on different trees overlap, and a round that
// spans several trees runs each sub-batch on its own goroutine under
// only that tree's lock.
type Client struct {
	trees []*tree
	// clock, when non-nil, is charged cal's virtual time per round.
	clock *simclock.Clock
	cal   simclock.Calibration
	// failed is the fail-closed latch: the first mid-access error,
	// wrapped in ErrClientFailed; later errors never replace it.
	failed atomic.Pointer[failedError]
	// obs is what the trees report to; they share it by pointer.
	obs  observer
	seed int64 // WithSeed
}

// observer is where a client's trees report: the registry their round
// spans start from and the metric series.
type observer struct {
	// reg is nil when telemetry is disabled; tm then holds nil
	// instruments, so the hot path pays one branch per record call.
	reg *telemetry.Registry
	tm  clientTelemetry
}

// clientTelemetry holds the client's registered series, shared by all
// trees: counters sum across shards, the stash-peak gauge keeps the
// maximum (SetMax), and the instantaneous stash gauge reflects the most
// recently reporting tree. Exported values are aggregates the untrusted
// server already observes — path counts, wall latencies, ciphertext
// bytes, stash occupancy — never block IDs or leaf positions
// (telemetrysafe discipline).
type clientTelemetry struct {
	accesses  *telemetry.Counter
	batches   *telemetry.Counter
	bytes     *telemetry.Counter
	single    *telemetry.Histogram
	batch     *telemetry.Histogram
	batchSize *telemetry.Histogram
	stash     *telemetry.Gauge
	stashPeak *telemetry.Gauge
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClock makes the client charge virtual time per round: the link
// RTT once (the sub-batches leave back to back and overlap on the
// link), the slowest tree's serial per-query server work, and the whole
// round's serial on-chip per-block client work — one Hypervisor does
// all the stash/crypto work regardless of the fan-out width
// (simclock.ORAMBatchCost with max-shard queries).
func WithClock(clock *simclock.Clock, cal simclock.Calibration) ClientOption {
	return func(c *Client) {
		c.clock, c.cal = clock, cal
	}
}

// WithSeed keys each tree's leaf remaps by (seed, shard) instead of
// crypto/rand, so a model run repeats its leaves exactly whatever order
// fan-out goroutines run in. Whoever knows the seed knows every leaf:
// models and tests only. Bucket nonces stay on crypto/rand.
func WithSeed(seed int64) ClientOption {
	return func(c *Client) { c.seed = seed }
}

// WithTelemetry registers the client's series on reg and records per
// tree round. A nil registry leaves telemetry disabled.
func WithTelemetry(reg *telemetry.Registry) ClientOption {
	return func(c *Client) {
		c.obs.reg = reg
		c.obs.tm = clientTelemetry{
			accesses:  reg.Counter("hardtape_oram_accesses_total", "logical ORAM block accesses"),
			batches:   reg.Counter("hardtape_oram_batches_total", "ORAM server round trips (single or batched)"),
			bytes:     reg.Counter("hardtape_oram_bytes_moved_total", "ciphertext bytes moved between client and server"),
			single:    reg.Histogram("hardtape_oram_access_seconds", "wall latency of one ORAM access round trip", nil, "kind", "single"),
			batch:     reg.Histogram("hardtape_oram_access_seconds", "wall latency of one ORAM access round trip", nil, "kind", "batch"),
			batchSize: reg.Histogram("hardtape_oram_batch_blocks", "blocks per batched access", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
			stash:     reg.Gauge("hardtape_oram_stash_depth", "stash occupancy after the last access"),
			stashPeak: reg.Gauge("hardtape_oram_stash_peak", "high-water stash occupancy"),
		}
	}
}

// shardOf assigns a block to a shard by a stable hash of its id
// (splitmix64 finalizer). The assignment is a pure function of the id,
// so it survives restarts, is identical on every device sharing the
// tree set, and — crucially for obliviousness — is independent of the
// access sequence: the adversary learns only which shard serves a
// block, which the partitioning already makes public, never anything
// about the access pattern within a shard.
func shardOf(id BlockID, shards int) int {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// deriveShardKey derives a per-shard bucket key from the master ORAM
// key (HMAC-SHA256 with a shard-indexed label). Distinct keys
// domain-separate the shards: a sealed bucket from shard i cannot be
// relocated to the same node index of shard j without failing
// authentication, extending the bucket-index associated data's
// anti-relocation guarantee across trees.
func deriveShardKey(master []byte, label string) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// NewClient builds the client over one server per shard (a single
// server is the paper's single tree). Each tree's bucket key is derived
// from the master key and its shard index — K = 1 included, so the key
// a tree is sealed under never depends on how the client was built —
// and sibling devices sharing the master key agree on every tree's key.
func NewClient(servers []Server, key []byte, opts ...ClientOption) (*Client, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("%w: need at least one server", ErrShards)
	}
	if len(key) != KeySize {
		return nil, ErrBadKey
	}
	c := &Client{trees: make([]*tree, len(servers))}
	for _, opt := range opts {
		opt(c)
	}
	for i, srv := range servers {
		t, err := newTree(&c.obs, i, srv, deriveShardKey(key, fmt.Sprintf("hardtape-oram-shard-%d", i)), c.seed)
		if err != nil {
			return nil, fmt.Errorf("oram: shard %d: %w", i, err)
		}
		c.trees[i] = t
	}
	return c, nil
}

// AccessBatch performs a mixed read/write batch in one round across
// the trees holding any of its blocks (one ReadPaths + WritePaths round
// trip per tree, whatever the round's size). The
// returned slice is aligned with ops and holds each block's prior
// contents, nil when absent — after a full oblivious path access, so a
// miss looks like a hit. When ctx carries a trace, every tree's
// sub-batch is an "oram.batch" span under it.
//
// The round runs inline on the caller's goroutine, under that tree's
// lock, if and only if every op belongs to one tree — always at K = 1;
// goroutines are spent only on a real fan-out.
func (c *Client) AccessBatch(ctx context.Context, ops []BatchOp) ([][]byte, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for _, op := range ops {
		if op.Op == OpWrite && len(op.Data) > BlockSize {
			return nil, ErrBlockTooBig
		}
	}
	out := make([][]byte, len(ops))
	k := len(c.trees)
	sh := shardOf(ops[0].ID, k)
	inline := true
	for _, op := range ops[1:] {
		inline = inline && shardOf(op.ID, k) == sh
	}
	var err error
	if inline {
		t := c.trees[sh]
		t.mu.Lock()
		err = c.runTree(ctx, t, ops, out)
		t.mu.Unlock()
		if err == nil && c.clock != nil {
			c.clock.Advance(c.cal.ORAMBatchCost(len(ops), len(ops)*t.depth*BucketSize))
		}
	} else {
		err = c.fanOut(ctx, ops, out)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// latched returns the fail-closed error, or nil while the client is
// healthy.
func (c *Client) latched() error {
	if f := c.failed.Load(); f != nil {
		return f
	}
	return nil
}

// runTree runs one tree's (sub-)batch as one regular Path ORAM access
// (tree.accessBatch) against its private server. The caller holds t.mu.
// The latch is checked under the lock: a round queued behind a failing
// access must not touch the tree it poisoned. The first access error is
// latched client-wide; later ones return it.
func (c *Client) runTree(ctx context.Context, t *tree, ops []BatchOp, out [][]byte) error {
	if err := c.latched(); err != nil {
		return err
	}
	if err := t.accessBatch(ctx, ops, out); err != nil {
		c.failed.CompareAndSwap(nil, &failedError{cause: err})
		return c.failed.Load()
	}
	return nil
}

// fanOut runs a round that spans several trees: every non-empty tree's
// sub-batch on its own goroutine
// under only that tree's lock, results reassembled in request order.
// Obliviousness holds per tree: the adversary observing all servers
// sees K independent uniform leaf sequences whose interleaving depends
// only on the public hash. The round is charged once: the link RTT, the
// largest sub-batch's serial server work, and every moved block's
// client work.
func (c *Client) fanOut(ctx context.Context, ops []BatchOp, out [][]byte) error {
	k := len(c.trees)
	subOps, subIdx, subOut := make([][]BatchOp, k), make([][]int, k), make([][][]byte, k)
	for i, op := range ops {
		sh := shardOf(op.ID, k)
		subOps[sh] = append(subOps[sh], op)
		subIdx[sh] = append(subIdx[sh], i)
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	maxQ, blocks := 0, 0
	for sh, t := range c.trees {
		n := len(subOps[sh])
		if n == 0 {
			continue
		}
		maxQ = max(maxQ, n)
		blocks += n * t.depth * BucketSize
		subOut[sh] = make([][]byte, n)
		wg.Add(1)
		go func(sh int, t *tree) {
			defer wg.Done()
			t.mu.Lock()
			defer t.mu.Unlock()
			errs[sh] = c.runTree(ctx, t, subOps[sh], subOut[sh])
		}(sh, t)
	}
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return err
		}
		for j, i := range subIdx[sh] {
			out[i] = subOut[sh][j]
		}
	}
	if c.clock != nil {
		c.clock.Advance(c.cal.ORAMBatchCost(maxQ, blocks))
	}
	return nil
}

// Close releases every closable server (TCP connections).
func (c *Client) Close() error {
	var firstErr error
	for _, t := range c.trees {
		if cl, ok := t.server.(io.Closer); ok {
			if err := cl.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Stats reports client counters.
type Stats struct {
	Accesses uint64
	// Batches counts multi-op tree rounds (each covering two or more of
	// the Accesses); single accesses are not batches.
	Batches    uint64
	MaxStash   int
	StashSize  int
	BytesMoved uint64
	Depth      int
	// Shards is the tree count K behind the client.
	Shards int
}

// Stats aggregates the per-tree counters: accesses, batches and bytes
// sum; MaxStash and StashSize report the worst tree (the stash bound is
// a per-tree property); Depth reports the deepest tree.
func (c *Client) Stats() Stats {
	agg := Stats{Shards: len(c.trees)}
	for _, t := range c.trees {
		st := t.stats()
		agg.Accesses += st.Accesses
		agg.Batches += st.Batches
		agg.BytesMoved += st.BytesMoved
		agg.MaxStash = max(agg.MaxStash, st.MaxStash)
		agg.StashSize = max(agg.StashSize, st.StashSize)
		agg.Depth = max(agg.Depth, st.Depth)
	}
	return agg
}

// ShardStats returns each tree's own counters (tests, diagnostics).
func (c *Client) ShardStats() []Stats {
	out := make([]Stats, len(c.trees))
	for i, t := range c.trees {
		out[i] = t.stats()
	}
	return out
}
