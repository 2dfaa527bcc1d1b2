package oram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// shardCounts is the K axis every client property is checked on: the
// paper's single tree and two real fan-out widths. There is one client
// and one access routine, so each property below is ONE table-driven
// body; a few keep a second historical entry point (Batch…/Sharded…)
// that pins a different round shape of the same body.
var shardCounts = []int{1, 2, 4}

func forShards(t *testing.T, fn func(t *testing.T, k int)) {
	for _, k := range shardCounts {
		t.Run(fmt.Sprintf("shards-%d", k), func(t *testing.T) { fn(t, k) })
	}
}

// newTestClient builds a K-shard client over fresh MemServers (aggregate
// capacity split evenly) and returns the servers for observation.
func newTestClient(t testing.TB, k int, totalCap uint64, opts ...ClientOption) (*Client, []*MemServer) {
	t.Helper()
	mems := make([]*MemServer, k)
	servers := make([]Server, k)
	perShard := (totalCap + uint64(k) - 1) / uint64(k)
	for i := range servers {
		m, err := NewMemServer(perShard)
		if err != nil {
			t.Fatal(err)
		}
		mems[i], servers[i] = m, m
	}
	cli, err := NewClient(servers, testKey(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cli, mems
}

// readOne, writeOne and readMany are the rounds most tests issue, each
// one AccessBatch: a single read (nil for an absent block), a single
// write, and a read of every id.
func readOne(ctx context.Context, cli *Client, id BlockID) ([]byte, error) {
	out, err := cli.AccessBatch(ctx, []BatchOp{{Op: OpRead, ID: id}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func writeOne(cli *Client, id BlockID, data []byte) error {
	_, err := cli.AccessBatch(context.Background(), []BatchOp{{Op: OpWrite, ID: id, Data: data}})
	return err
}

func readMany(ctx context.Context, cli *Client, ids []BlockID) ([][]byte, error) {
	ops := make([]BatchOp, len(ids))
	for i, id := range ids {
		ops[i] = BatchOp{Op: OpRead, ID: id}
	}
	return cli.AccessBatch(ctx, ops)
}

// hotPerShard returns one block id per shard, found by the public hash.
func hotPerShard(k int) []BlockID {
	hot := make([]BlockID, k)
	seen := make([]bool, k)
	for id, found := BlockID(0), 0; found < k; id++ {
		if sh := shardOf(id, k); !seen[sh] {
			seen[sh] = true
			hot[sh] = id
			found++
		}
	}
	return hot
}

// corruptAll flips a byte in every stored bucket of a tree, so that
// wherever a block lives its next path read fails authentication
// (TamperBucket's single flip could land on a bucket the read misses).
func corruptAll(m *MemServer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for node := range m.buckets {
		if len(m.buckets[node]) > 0 {
			m.buckets[node][0] ^= 0x01
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, _ := newTestClient(t, k, 64)
		data := []byte("hello oblivious world")
		if err := writeOne(cli, 7, data); err != nil {
			t.Fatal(err)
		}
		got, err := readOne(context.Background(), cli, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("read = %q", got[:len(data)])
		}
		if len(got) != BlockSize {
			t.Fatalf("blocks must be fixed size, got %d", len(got))
		}
	})
}

func TestOverwrite(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, _ := newTestClient(t, k, 64)
		for _, v := range []string{"version-1", "v2"} {
			if err := writeOne(cli, 5, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := readOne(context.Background(), cli, 5)
		if err != nil {
			t.Fatal(err)
		}
		// The shorter payload wins AND the tail of the longer one is gone.
		if string(got[:3]) != "v2\x00" {
			t.Fatalf("overwrite lost: %q", got[:3])
		}
	})
}

func TestReadMissing(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, _ := newTestClient(t, k, 64)
		if got, err := readOne(context.Background(), cli, 42); got != nil || err != nil {
			t.Fatalf("missing block: %q %v", got, err)
		}
		// A miss still performs a full path access (oblivious lookups).
		if cli.Stats().Accesses != 1 {
			t.Fatal("miss should still access a path")
		}
	})
}

func TestOversizeBlock(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, _ := newTestClient(t, k, 64)
		big := make([]byte, BlockSize+1)
		if err := writeOne(cli, 1, big); !errors.Is(err, ErrBlockTooBig) {
			t.Fatalf("oversize: %v", err)
		}
		if _, err := cli.AccessBatch(context.Background(), []BatchOp{{Op: OpRead, ID: 2}, {Op: OpWrite, ID: 1, Data: big}}); !errors.Is(err, ErrBlockTooBig) {
			t.Fatalf("oversize in batch: %v", err)
		}
		// Rejected before any state changed: the client stays usable.
		if err := writeOne(cli, 1, []byte("ok")); err != nil {
			t.Fatalf("client unusable after a rejected write: %v", err)
		}
	})
}

func TestManyBlocksSurviveShuffling(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		const n = 200
		cli, _ := newTestClient(t, k, 256)
		for i := 0; i < n; i++ {
			if err := writeOne(cli, BlockID(i), []byte(fmt.Sprintf("block-%d", i))); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		// Random re-reads in scrambled order.
		rng := mrand.New(mrand.NewSource(1))
		for _, i := range rng.Perm(n) {
			got, err := readOne(context.Background(), cli, BlockID(i))
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			want := fmt.Sprintf("block-%d", i)
			if string(got[:len(want)]) != want {
				t.Fatalf("block %d corrupted: %q", i, got[:len(want)])
			}
		}
	})
}

// checkStashBound drives ~600 mixed ops through a K-shard client in
// rounds of `batch` ops and checks EVERY tree's stash stayed O(log n) of
// its own tree: the union eviction of an n-op round must bound the stash
// like the textbook per-access eviction (its n = 1 case) does.
func checkStashBound(t *testing.T, k, batch int) {
	cli, _ := newTestClient(t, k, 512)
	rng := mrand.New(mrand.NewSource(int64(42 + batch)))
	for round := 0; round < 600/batch; round++ {
		ops := make([]BatchOp, batch)
		for i := range ops {
			ops[i] = BatchOp{Op: OpRead, ID: BlockID(rng.Intn(300))}
			if rng.Intn(3) != 0 {
				ops[i].Op, ops[i].Data = OpWrite, []byte{byte(round), byte(i)}
			}
		}
		if _, err := cli.AccessBatch(context.Background(), ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// Theory: stash is O(log n) whp; allow a generous constant but far
	// below the safety bound.
	for sh, st := range cli.ShardStats() {
		if st.MaxStash > 8*st.Depth {
			t.Fatalf("shard %d stash grew to %d (depth %d)", sh, st.MaxStash, st.Depth)
		}
	}
}

func TestStashStaysBounded(t *testing.T) {
	forShards(t, func(t *testing.T, k int) { checkStashBound(t, k, 1) })
}

func TestBatchStashStaysBounded(t *testing.T) {
	forShards(t, func(t *testing.T, k int) { checkStashBound(t, k, 8) })
}

// TestShardedStashBounded: wide rounds, where every tree's sub-batch is
// itself a multi-op batch.
func TestShardedStashBounded(t *testing.T) {
	forShards(t, func(t *testing.T, k int) { checkStashBound(t, k, 16) })
}

// checkLeafUniformity hammers ONE hot block per shard and chi-square
// tests EVERY tree's adversary-observed leaf sequence against uniform
// over that tree's own leaf space: the observed leaves must not depend
// on which block is accessed (a fixed block would otherwise show a fixed
// path), whatever the round shape. round issues one round against the
// hot set and reports how many accesses each tree saw.
func checkLeafUniformity(t *testing.T, k int, round func(cli *Client, hot []BlockID) (perTree int, err error)) {
	cli, mems := newTestClient(t, k, 1024)
	observed := make([][]uint64, k)
	for i, m := range mems {
		m.SetObserver(func(ev AccessEvent) {
			if !ev.Write {
				observed[i] = append(observed[i], ev.Leaf)
			}
		})
	}
	hot := hotPerShard(k)
	for _, id := range hot {
		if err := writeOne(cli, id, []byte("hot block")); err != nil {
			t.Fatal(err)
		}
	}
	// ≈ 8 observations per leaf of each tree's own leaf space.
	for seen, want := 0, 8*int(mems[0].Leaves()); seen < want; {
		n, err := round(cli, hot)
		if err != nil {
			t.Fatal(err)
		}
		seen += n
	}
	for sh, leaves := range observed {
		n := mems[sh].Leaves()
		counts := make(map[uint64]int)
		for _, l := range leaves {
			counts[l]++
		}
		// Expect ≈ len/n per leaf; chi-square statistic should be near n.
		expected := float64(len(leaves)) / float64(n)
		var chi2 float64
		maxCount := 0
		for leaf := uint64(0); leaf < n; leaf++ {
			diff := float64(counts[leaf]) - expected
			chi2 += diff * diff / expected
			maxCount = max(maxCount, counts[leaf])
		}
		// df = n-1; mean df, stdev sqrt(2 df). Allow 6 sigma.
		df := float64(n - 1)
		if chi2 > df+6*1.4142*df { // crude but stable bound
			t.Fatalf("shard %d leaf distribution non-uniform: chi2=%.1f df=%.0f", sh, chi2, df)
		}
		// And the hot block's own path must not dominate.
		if float64(maxCount) > 10*expected {
			t.Fatalf("shard %d: one leaf appears %dx (expected %.1f) — access pattern leaks", sh, maxCount, expected)
		}
	}
}

// TestLeafSequenceLooksUniform: single accesses (n = 1 rounds, inline).
func TestLeafSequenceLooksUniform(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		checkLeafUniformity(t, k, func(cli *Client, hot []BlockID) (int, error) {
			for _, id := range hot {
				if _, err := readOne(context.Background(), cli, id); err != nil {
					return 0, err
				}
			}
			return 1, nil
		})
	})
}

// TestBatchLeafSequenceLooksUniform: n > 1 rounds with duplicate ids
// inside one sub-batch — every op draws its own fresh remap.
func TestBatchLeafSequenceLooksUniform(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		checkLeafUniformity(t, k, func(cli *Client, hot []BlockID) (int, error) {
			ids := make([]BlockID, 0, 4*len(hot))
			for i := 0; i < 4; i++ {
				ids = append(ids, hot...)
			}
			_, err := readMany(context.Background(), cli, ids)
			return 4, err
		})
	})
}

// TestShardedLeafUniformityPerShard: a fan-out round whose sub-batches
// are single ops (n = 1 per tree, run concurrently).
func TestShardedLeafUniformityPerShard(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		checkLeafUniformity(t, k, func(cli *Client, hot []BlockID) (int, error) {
			_, err := readMany(context.Background(), cli, hot)
			return 1, err
		})
	})
}

// TestShardedNoCrossShardTraffic pins the isolation property: accessing
// a block generates ORAM traffic ONLY on its owning tree. The other
// trees see nothing — there is no cross-shard padding, batching side
// channel, or shared state that could correlate them.
func TestShardedNoCrossShardTraffic(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, mems := newTestClient(t, k, 512)
		events := make([]int, k)
		for i, m := range mems {
			m.SetObserver(func(AccessEvent) { events[i]++ })
		}
		const id = BlockID(5)
		owner := shardOf(id, k)
		if err := writeOne(cli, id, []byte("lonely")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, err := readOne(context.Background(), cli, id); err != nil {
				t.Fatal(err)
			}
			if _, err := readMany(context.Background(), cli, []BlockID{id, id}); err != nil {
				t.Fatal(err)
			}
		}
		for sh, n := range events {
			if sh == owner && n == 0 {
				t.Fatalf("owning shard %d saw no traffic", sh)
			}
			if sh != owner && n != 0 {
				t.Fatalf("shard %d saw %d events for a block owned by shard %d — cross-shard leak", sh, n, owner)
			}
		}
	})
}

// checkCharge runs one n-op round on a fresh K-shard client and checks
// the per-shard access deltas in ShardStats against the partition
// recomputed from the public hash. Those deltas, with each tree's depth,
// are all a cost model prices a round from (the fullest shard's serial
// server queries, every shard's moved blocks); it returns them.
func checkCharge(t *testing.T, k, n int) (perShard []int) {
	cli, _ := newTestClient(t, k, 512)
	ids := make([]BlockID, n)
	perShard = make([]int, k)
	for i := range ids {
		ids[i] = BlockID(i)
		perShard[shardOf(ids[i], k)]++
	}
	before := cli.ShardStats()
	var err error
	if n == 1 {
		err = writeOne(cli, ids[0], []byte("x"))
	} else {
		_, err = readMany(context.Background(), cli, ids)
	}
	if err != nil {
		t.Fatal(err)
	}
	for sh, st := range cli.ShardStats() {
		if got := int(st.Accesses - before[sh].Accesses); got != perShard[sh] {
			t.Fatalf("%d-op round: shard %d counted %d accesses, the hash assigns it %d", n, sh, got, perShard[sh])
		}
		if st.Depth <= 0 {
			t.Fatalf("shard %d reports depth %d", sh, st.Depth)
		}
	}
	return perShard
}

// TestClockCharging: a single access is one path on exactly one tree at
// any K — the one query a modeled clock charges for it.
func TestClockCharging(t *testing.T) {
	forShards(t, func(t *testing.T, k int) { checkCharge(t, k, 1) })
}

// TestShardedClockCharging: a wide round's accesses split across the
// trees as the public hash assigns them, so with K > 1 the fullest
// shard — the serial server work a modeled clock charges — holds fewer
// than the whole round.
func TestShardedClockCharging(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		const n = 12
		if maxQ := slices.Max(checkCharge(t, k, n)); k > 1 && maxQ >= n {
			t.Fatalf("%d-op round not split across %d shards", n, k)
		}
	})
}

func TestTamperDetection(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, mems := newTestClient(t, k, 64)
		if err := writeOne(cli, 1, []byte("secret")); err != nil {
			t.Fatal(err)
		}
		// Tamper one bucket on leaf 0's path: the first non-empty bucket is
		// the root, which every subsequent path read must traverse.
		mems[shardOf(1, k)].TamperBucket(0)
		if _, err := readOne(context.Background(), cli, 1); !errors.Is(err, ErrTampered) {
			t.Fatalf("tamper: %v", err)
		}
	})
}

// TestShardedTamperDetected: corrupting one tree's bucket store must
// surface ErrTampered through a fan-out round that touches it.
func TestShardedTamperDetected(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, mems := newTestClient(t, k, 512)
		ids := []BlockID{9, 10, 11, 12, 13, 14}
		for _, id := range ids {
			if err := writeOne(cli, id, []byte("integrity")); err != nil {
				t.Fatal(err)
			}
		}
		corruptAll(mems[shardOf(9, k)])
		if _, err := readMany(context.Background(), cli, ids); !errors.Is(err, ErrTampered) {
			t.Fatalf("tampered shard read: %v, want ErrTampered", err)
		}
	})
}

func TestConcurrentClientsSharedServer(t *testing.T) {
	// Path ORAM is stateless server-side: two clients with the same key
	// can share a server, each managing disjoint block id ranges.
	srv, err := NewMemServer(256)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewClient([]Server{srv}, testKey())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient([]Server{srv}, testKey())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var firstErr error
		for i := 0; i < 50; i++ {
			if err := writeOne(c1, BlockID(i), []byte{1, byte(i)}); err != nil {
				firstErr = err
				break
			}
		}
		done <- firstErr
	}()
	// NOTE: two clients do not coordinate with each other; interleaved
	// path writes can race on shared buckets. Production (and the paper)
	// has one client per tree set; here we run c2 after c1.
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := writeOne(c2, BlockID(1000+i), []byte{2, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, err := readOne(context.Background(), c2, BlockID(1000+i))
		if err != nil {
			t.Fatalf("c2 read %d: %v", i, err)
		}
		if got[0] != 2 || got[1] != byte(i) {
			t.Fatalf("c2 block %d corrupted", i)
		}
	}
}

func TestInvalidConstruction(t *testing.T) {
	if _, err := NewMemServer(1); !errors.Is(err, ErrCapacity) {
		t.Errorf("capacity 1: %v", err)
	}
	srv, err := NewMemServer(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient([]Server{srv}, []byte("short")); !errors.Is(err, ErrBadKey) {
		t.Errorf("short key: %v", err)
	}
}

func TestShardedConfigErrors(t *testing.T) {
	if _, err := NewClient(nil, testKey()); !errors.Is(err, ErrShards) {
		t.Fatalf("no servers: %v, want ErrShards", err)
	}
	cli, _ := newTestClient(t, 2, 128)
	if cli.Stats().Shards != 2 || len(cli.ShardStats()) != 2 {
		t.Fatal("shard count mismatch")
	}
}

func TestShardOfStableAndBalanced(t *testing.T) {
	// Stability: the assignment is a pure function of the id.
	for id := BlockID(0); id < 64; id++ {
		if shardOf(id, 4) != shardOf(id, 4) {
			t.Fatal("shardOf is not deterministic")
		}
		if shardOf(id, 1) != 0 {
			t.Fatal("K=1 must map every id to the one tree")
		}
	}
	// Balance: a splitmix64-hashed id space spreads close to evenly.
	for _, k := range []int{2, 4, 8} {
		counts := make([]int, k)
		const n = 1 << 14
		for id := 0; id < n; id++ {
			counts[shardOf(BlockID(id), k)]++
		}
		want := n / k
		for sh, c := range counts {
			if c < want*8/10 || c > want*12/10 {
				t.Fatalf("%d shards: shard %d holds %d of %d ids (want ≈%d)", k, sh, c, n, want)
			}
		}
	}
}

func TestShardedKeyDomainSeparation(t *testing.T) {
	a := deriveShardKey(testKey(), "hardtape-oram-shard-0")
	b := deriveShardKey(testKey(), "hardtape-oram-shard-1")
	if bytes.Equal(a, b) {
		t.Fatal("shard keys are not domain-separated")
	}
	if bytes.Equal(a, testKey()) {
		t.Fatal("shard key equals the master key")
	}
	// K = 1 is a parameter value, not a second key schedule: the single
	// tree is sealed under the shard-0 key, never the master key.
	cli, mems := newTestClient(t, 1, 64)
	if err := writeOne(cli, 1, []byte("k1")); err != nil {
		t.Fatal(err)
	}
	derived, _ := newCryptor(a)
	master, _ := newCryptor(testKey())
	root := mems[0].buckets[1]
	if _, err := derived.openInto(1, root, nil); err != nil {
		t.Fatalf("K=1 root bucket does not open under the shard-0 key: %v", err)
	}
	if _, err := master.openInto(1, root, nil); !errors.Is(err, ErrTampered) {
		t.Fatalf("K=1 root bucket opens under the master key: %v", err)
	}
}

// TestShardedRoundTrip drives a mixed batched workload through 1/2/4/8
// shards and checks every configuration against a plain map — the
// partition must be invisible to the consumer.
func TestShardedRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			cli, _ := newTestClient(t, shards, 512)
			want := make(map[BlockID][]byte)
			rng := mrand.New(mrand.NewSource(42))
			for round := 0; round < 30; round++ {
				ops := make([]BatchOp, 8)
				for i := range ops {
					id := BlockID(rng.Intn(96))
					if rng.Intn(2) == 0 {
						data := []byte(fmt.Sprintf("r%d-i%d-%d", round, i, id))
						ops[i] = BatchOp{Op: OpWrite, ID: id, Data: data}
					} else {
						ops[i] = BatchOp{Op: OpRead, ID: id}
					}
				}
				got, err := cli.AccessBatch(context.Background(), ops)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i, op := range ops {
					exp := want[op.ID]
					if (exp == nil) != (got[i] == nil) || !bytes.HasPrefix(got[i], exp) {
						t.Fatalf("round %d op %d: block %d prior contents %q, want %q", round, i, op.ID, got[i], exp)
					}
					if op.Op == OpWrite {
						want[op.ID] = op.Data
					}
				}
			}
			// Single accesses route through the same trees.
			if err := writeOne(cli, 7, []byte("direct")); err != nil {
				t.Fatal(err)
			}
			got, err := readOne(context.Background(), cli, 7)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:6]) != "direct" {
				t.Fatal("single-access round trip failed")
			}
			if st := cli.Stats(); st.Shards != shards {
				t.Fatalf("Stats().Shards = %d, want %d", st.Shards, shards)
			}
		})
	}
}

func TestBatchReadWriteRoundTrip(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, _ := newTestClient(t, k, 256)
		ops := make([]BatchOp, 8)
		ids := make([]BlockID, 8)
		for i := range ops {
			ids[i] = BlockID(i)
			ops[i] = BatchOp{Op: OpWrite, ID: ids[i], Data: []byte(fmt.Sprintf("batch-%d", i))}
		}
		if _, err := cli.AccessBatch(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		got, err := readMany(context.Background(), cli, ids)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ids) {
			t.Fatalf("got %d results for %d ids", len(got), len(ids))
		}
		for i, data := range got {
			want := fmt.Sprintf("batch-%d", i)
			if data == nil || string(data[:len(want)]) != want {
				t.Fatalf("block %d corrupted in batch read", i)
			}
			if len(data) != BlockSize {
				t.Fatalf("batch blocks must be fixed size, got %d", len(data))
			}
		}
		// Stats semantics: Accesses counts every op; Batches counts multi-op
		// tree rounds only, so single accesses never bump it.
		st := cli.Stats()
		if st.Accesses != 16 || st.Batches == 0 {
			t.Fatalf("after two 8-op rounds: accesses %d, batches %d", st.Accesses, st.Batches)
		}
		one, err := readOne(context.Background(), cli, 3)
		if err != nil {
			t.Fatal(err)
		}
		if string(one[:7]) != "batch-3" {
			t.Fatal("single read after batch write failed")
		}
		if after := cli.Stats(); after.Accesses != 17 || after.Batches != st.Batches || after.BytesMoved <= st.BytesMoved {
			t.Fatalf("single access: accesses %d batches %d→%d bytes %d→%d",
				after.Accesses, st.Batches, after.Batches, st.BytesMoved, after.BytesMoved)
		}
	})
}

func TestBatchMissingBlocks(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, _ := newTestClient(t, k, 64)
		if err := writeOne(cli, 1, []byte("present")); err != nil {
			t.Fatal(err)
		}
		got, err := readMany(context.Background(), cli, []BlockID{1, 42, 43})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] == nil || got[1] != nil || got[2] != nil {
			t.Fatalf("missing blocks must be nil entries: %v", []bool{got[0] == nil, got[1] == nil, got[2] == nil})
		}
		// Misses still perform full oblivious path accesses.
		if cli.Stats().Accesses != 4 {
			t.Fatalf("accesses = %d, want 4", cli.Stats().Accesses)
		}
	})
}

// pathsOnlyServer serves the multi-path calls and fails the test on a
// single-path one: a round of any size is one ReadPaths and one
// WritePaths.
type pathsOnlyServer struct {
	Server
	t     *testing.T
	reads int
}

func (p *pathsOnlyServer) ReadPath(leaf uint64) ([][]byte, error) {
	p.t.Fatalf("client called ReadPath(%d)", leaf)
	return nil, nil
}

func (p *pathsOnlyServer) WritePath(leaf uint64, _ [][]byte) error {
	p.t.Fatalf("client called WritePath(%d)", leaf)
	return nil
}

func (p *pathsOnlyServer) ReadPaths(leaves []uint64) ([][][]byte, error) {
	p.reads += len(leaves)
	return p.Server.ReadPaths(leaves)
}

// TestRoundsUseOnlyBatchCalls: one-op and multi-op rounds, over one and
// two trees, reach the server only through ReadPaths and WritePaths.
func TestRoundsUseOnlyBatchCalls(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", k), func(t *testing.T) {
			_, mems := newTestClient(t, k, 128)
			servers := make([]Server, k)
			wrapped := make([]*pathsOnlyServer, k)
			for i, m := range mems {
				wrapped[i] = &pathsOnlyServer{Server: m, t: t}
				servers[i] = wrapped[i]
			}
			cli, err := NewClient(servers, testKey())
			if err != nil {
				t.Fatal(err)
			}
			if err := writeOne(cli, 5, []byte("one")); err != nil {
				t.Fatal(err)
			}
			got, err := readOne(context.Background(), cli, 5)
			if err != nil || string(got[:3]) != "one" {
				t.Fatalf("one-op round: %q, %v", got, err)
			}
			ops := []BatchOp{{Op: OpWrite, ID: 9, Data: []byte("nine")}, {Op: OpRead, ID: 5}, {Op: OpRead, ID: 9}}
			got2, err := cli.AccessBatch(context.Background(), ops)
			if err != nil || string(got2[1][:3]) != "one" || string(got2[2][:4]) != "nine" {
				t.Fatalf("multi-op round: %q, %v", got2, err)
			}
			reads := 0
			for _, w := range wrapped {
				reads += w.reads
			}
			if reads != 5 {
				t.Fatalf("servers saw %d path reads, want 5 (one per op)", reads)
			}
		})
	}
}

// TestAbsentReadsLeaveNoState: reads of never-written ids, alone or in
// batches, leave no position-map entry and no stash block behind, so
// any number of them costs no trusted state. A fresh id read and then
// written inside one batch still keeps its block: the cleanup runs
// after the round's ops, not per op.
func TestAbsentReadsLeaveNoState(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, _ := newTestClient(t, k, 256)
		for id := BlockID(0); id < 64; id++ {
			if err := writeOne(cli, id, []byte{byte(id)}); err != nil {
				t.Fatal(err)
			}
		}
		state := func() (pos, stash int) {
			for _, tr := range cli.trees {
				tr.mu.Lock()
				pos, stash = pos+len(tr.pos), stash+len(tr.stash)
				tr.mu.Unlock()
			}
			return pos, stash
		}
		pos0, stash0 := state()
		const absent = 1000
		fresh := BlockID(1 << 40)
		for n := 0; n < absent; {
			size := 1 + n%8
			ops := make([]BatchOp, 0, size)
			for ; len(ops) < size && n < absent; n++ {
				ops = append(ops, BatchOp{Op: OpRead, ID: fresh})
				fresh++
			}
			got, err := cli.AccessBatch(context.Background(), ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, data := range got {
				if data != nil {
					t.Fatalf("never-written id %d read %q", ops[i].ID, data)
				}
			}
		}
		if pos, stash := state(); pos != pos0 || stash > stash0 {
			t.Fatalf("%d absent reads left state: positions %d → %d, stash %d → %d", absent, pos0, pos, stash0, stash)
		}
		if st := cli.Stats(); st.Accesses != 64+absent {
			t.Fatalf("accesses %d, want %d", st.Accesses, 64+absent)
		}

		got, err := cli.AccessBatch(context.Background(), []BatchOp{
			{Op: OpRead, ID: fresh},
			{Op: OpRead, ID: 3},
			{Op: OpWrite, ID: fresh, Data: []byte("late")},
		})
		if err != nil || got[0] != nil || got[1] == nil {
			t.Fatalf("read-then-write batch: %v %v", got, err)
		}
		if back, err := readOne(context.Background(), cli, fresh); err != nil || !bytes.HasPrefix(back, []byte("late")) {
			t.Fatalf("fresh id written after its read in one batch read back %q, %v", back, err)
		}
		if pos, _ := state(); pos != pos0+1 {
			t.Fatalf("positions %d, want %d", pos, pos0+1)
		}
	})
}

func TestBatchDuplicateIDs(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, _ := newTestClient(t, k, 64)
		if err := writeOne(cli, 7, []byte("dup")); err != nil {
			t.Fatal(err)
		}
		got, err := readMany(context.Background(), cli, []BlockID{7, 7, 7})
		if err != nil {
			t.Fatal(err)
		}
		for i, data := range got {
			if data == nil || string(data[:3]) != "dup" {
				t.Fatalf("duplicate id read %d failed", i)
			}
		}
		// Read-your-writes inside a batch: ops apply in request order and
		// each returns the contents its predecessors left.
		got, err = cli.AccessBatch(context.Background(), []BatchOp{
			{Op: OpWrite, ID: 7, Data: []byte("one")},
			{Op: OpRead, ID: 7},
			{Op: OpRead, ID: 8},
			{Op: OpWrite, ID: 8, Data: []byte("new")},
			{Op: OpWrite, ID: 7, Data: []byte("two")},
			{Op: OpRead, ID: 8},
			{Op: OpRead, ID: 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{"dup", "one", "", "", "one", "new", "two"} {
			if (want == "") != (got[i] == nil) || !bytes.HasPrefix(got[i], []byte(want)) {
				t.Fatalf("op %d returned %q, want %q", i, got[i], want)
			}
		}
		// And the block survives the multi-remap.
		after, err := readOne(context.Background(), cli, 7)
		if err != nil || string(after[:3]) != "two" {
			t.Fatalf("block lost after duplicate batch: %v", err)
		}
	})
}

// Property: the ORAM behaves exactly like a map under random single ops,
// at a shard count drawn from the seed.
func TestQuickORAMMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		cli, _ := newTestClient(t, shardCounts[rng.Intn(len(shardCounts))], 128)
		ref := map[BlockID][]byte{}
		for op := 0; op < 120; op++ {
			id := BlockID(rng.Intn(40))
			if rng.Intn(2) == 0 {
				v := []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
				if err := writeOne(cli, id, v); err != nil {
					return false
				}
				ref[id] = v
			} else {
				got, err := readOne(context.Background(), cli, id)
				want, exists := ref[id]
				if !exists {
					if err != nil || got != nil {
						return false
					}
					continue
				}
				if err != nil || !bytes.Equal(got[:len(want)], want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: mixed batched and single ops behave exactly like a map, at a
// shard count drawn from the seed.
func TestQuickBatchMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		cli, _ := newTestClient(t, shardCounts[rng.Intn(len(shardCounts))], 128)
		ref := map[BlockID][]byte{}
		for round := 0; round < 25; round++ {
			if rng.Intn(3) == 0 {
				// Interleave a single op.
				id := BlockID(rng.Intn(40))
				v := []byte(fmt.Sprintf("s%d", rng.Intn(1000)))
				if err := writeOne(cli, id, v); err != nil {
					return false
				}
				ref[id] = v
				continue
			}
			ops := make([]BatchOp, 2+rng.Intn(7))
			want := make([][]byte, len(ops))
			for i := range ops {
				id := BlockID(rng.Intn(40))
				// The batch semantics return the PRIOR content; compute
				// the expectation against the evolving reference, which
				// earlier ops in the same batch may have written.
				want[i] = ref[id]
				if rng.Intn(2) == 0 {
					v := []byte(fmt.Sprintf("b%d", rng.Intn(1000)))
					ops[i] = BatchOp{Op: OpWrite, ID: id, Data: v}
					ref[id] = v
				} else {
					ops[i] = BatchOp{Op: OpRead, ID: id}
				}
			}
			got, err := cli.AccessBatch(context.Background(), ops)
			if err != nil {
				return false
			}
			for i := range ops {
				if want[i] == nil {
					if got[i] != nil {
						return false
					}
					continue
				}
				if got[i] == nil || !bytes.Equal(got[i][:len(want[i])], want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// --- fail closed ---------------------------------------------------------

var errInjected = errors.New("injected server fault")

// flakyServer fails its failRead-th path-read call and its failWrite-th
// path-write call (1-based, single- and multi-path calls counted
// together; 0 = never) without touching the store, then works again —
// a transient fault the client must NOT silently survive.
type flakyServer struct {
	Server
	reads, writes       int
	failRead, failWrite int
}

func (f *flakyServer) ReadPath(leaf uint64) ([][]byte, error) {
	if f.reads++; f.reads == f.failRead {
		return nil, errInjected
	}
	return f.Server.ReadPath(leaf)
}

func (f *flakyServer) ReadPaths(leaves []uint64) ([][][]byte, error) {
	if f.reads++; f.reads == f.failRead {
		return nil, errInjected
	}
	return f.Server.ReadPaths(leaves)
}

func (f *flakyServer) WritePath(leaf uint64, buckets [][]byte) error {
	if f.writes++; f.writes == f.failWrite {
		return errInjected
	}
	return f.Server.WritePath(leaf, buckets)
}

func (f *flakyServer) WritePaths(leaves []uint64, paths [][][]byte) error {
	if f.writes++; f.writes == f.failWrite {
		return errInjected
	}
	return f.Server.WritePaths(leaves, paths)
}

// TestFailClosedAfterServerError: a server error in the middle of an
// access (after the remap, or after blocks left the stash for buckets
// that were never stored) must latch the client. Without the latch the
// next read of an affected block walks the wrong path and finds it
// absent — which the pager turns into a zero storage slot, a silently
// wrong trace. After the fault NO access may return nil for a written
// block.
func TestFailClosedAfterServerError(t *testing.T) {
	for _, k := range []int{1, 4} {
		for _, fault := range []string{"read", "write"} {
			for _, batch := range []int{1, 6} {
				t.Run(fmt.Sprintf("shards-%d/%s/batch-%d", k, fault, batch), func(t *testing.T) {
					_, mems := newTestClient(t, k, 256)
					flaky := make([]*flakyServer, k)
					servers := make([]Server, k)
					for i, m := range mems {
						flaky[i] = &flakyServer{Server: m}
						servers[i] = flaky[i]
					}
					cli, err := NewClient(servers, testKey())
					if err != nil {
						t.Fatal(err)
					}
					const blocks = 48
					for id := BlockID(0); id < blocks; id++ {
						if err := writeOne(cli, id, []byte(fmt.Sprintf("block-%d", id))); err != nil {
							t.Fatal(err)
						}
					}
					// Arm every server: its 3rd call from now fails.
					for _, f := range flaky {
						if fault == "read" {
							f.failRead = f.reads + 3
						} else {
							f.failWrite = f.writes + 3
						}
					}
					var cause error
					for round := 0; cause == nil && round < 200; round++ {
						ids := make([]BlockID, batch)
						for i := range ids {
							ids[i] = BlockID((round*batch + i) % blocks)
						}
						if batch == 1 {
							_, cause = readOne(context.Background(), cli, ids[0])
						} else {
							_, cause = readMany(context.Background(), cli, ids)
						}
					}
					if !errors.Is(cause, errInjected) || !errors.Is(cause, ErrClientFailed) {
						t.Fatalf("faulting access returned %v, want ErrClientFailed wrapping the injected fault", cause)
					}

					// The servers are healthy again; the client must not be.
					closed := func(what string, err error) {
						t.Helper()
						if !errors.Is(err, ErrClientFailed) || !errors.Is(err, errInjected) {
							t.Fatalf("%s after the fault returned %v, want ErrClientFailed wrapping the cause", what, err)
						}
					}
					all := make([]BlockID, blocks)
					for id := range all {
						all[id] = BlockID(id)
						_, err := readOne(context.Background(), cli, all[id])
						closed(fmt.Sprintf("read(%d)", id), err)
					}
					_, err = readMany(context.Background(), cli, all[:8])
					closed("read batch", err)
					closed("Write", writeOne(cli, 3, []byte("late")))
					_, err = cli.AccessBatch(context.Background(), []BatchOp{{Op: OpWrite, ID: 3, Data: []byte("late")}, {Op: OpRead, ID: 4}})
					closed("AccessBatch", err)
				})
			}
		}
	}
}

func BenchmarkORAMAccess(b *testing.B) {
	cli, _ := newTestClient(b, 1, 4096)
	payload := make([]byte, BlockSize)
	for i := 0; i < 512; i++ {
		if err := writeOne(cli, BlockID(i), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readOne(context.Background(), cli, BlockID(i%512)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkORAMWrite(b *testing.B) {
	cli, _ := newTestClient(b, 1, 4096)
	payload := make([]byte, BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeOne(cli, BlockID(i%1024), payload); err != nil {
			b.Fatal(err)
		}
	}
}
