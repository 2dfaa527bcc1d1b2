package oram

import (
	"context"
	"fmt"
	"sync"

	"hardtape/internal/drbg"
)

// stashSafetyFactor bounds the stash at factor*depth blocks; Path ORAM
// guarantees O(log n)·ω(1) with overwhelming probability, so hitting
// this bound indicates a protocol bug rather than bad luck.
const stashSafetyFactor = 16

// tree is the trusted state of ONE Path ORAM tree: stash, flat position
// map, bucket cryptor, leaf generator and scratch. A Client owns one
// tree per shard; trees never share mutable structures. mu serializes
// whole accesses on one tree and guards all of its state.
type tree struct {
	// obs is the owning client's telemetry, shared by all its trees.
	obs    *observer
	mu     sync.Mutex
	shard  int
	server Server
	crypt  *cryptor
	rng    *drbg.Rand
	pos    map[BlockID]uint64
	stash  map[BlockID]*block
	depth  int
	leaves uint64

	// Round scratch, reused across accesses. Every per-round structure
	// is a flat slice (no maps on the hot path — linear scans over
	// ≤ batch-size node segments beat map hashing at these sizes, and
	// allocate nothing).
	pathIdx    []uint64
	oldLeaves  []uint64
	newLeaves  []uint64
	seenNodes  []uint64
	levelLists [][]*block
	carry      []*block
	nodes      []uint64 // unique path nodes, level-major segments
	offs       []int    // level → segment offset in nodes
	bkts       []bucket // aligned with nodes
	fill       []int    // slots filled per bucket
	cts        [][]byte // sealed ciphertexts, aligned with nodes
	outPaths   [][][]byte
	outFlat    [][]byte // flat backing for outPaths (len leaves·depth)
	scratchBkt bucket   // absorbPath's decode target

	// stats
	accesses   uint64
	batches    uint64
	maxStash   int
	bytesMoved uint64
}

func newTree(obs *observer, shard int, server Server, key []byte, seed int64) (*tree, error) {
	crypt, err := newCryptor(key)
	if err != nil {
		return nil, err
	}
	rng, err := drbg.New(seed, "hardtape-oram-leaf-v1", shard)
	if err != nil {
		return nil, err
	}
	depth := server.Depth()
	return &tree{
		obs:        obs,
		shard:      shard,
		server:     server,
		crypt:      crypt,
		rng:        rng,
		pos:        make(map[BlockID]uint64),
		stash:      make(map[BlockID]*block),
		depth:      depth,
		leaves:     server.Leaves(),
		pathIdx:    make([]uint64, depth),
		levelLists: make([][]*block, depth),
	}, nil
}

// accessBatch is the Path ORAM protocol, the only routine that talks to
// a Server: remap every op, read the ops' paths into the stash in one
// server round trip, apply the ops in order, evict along the union of
// the paths and write it back in one round trip. out is aligned with
// ops and receives each block's prior contents (nil when absent). A
// single access is the n = 1 case of the same two calls: the server
// sees one path read and one path write, the textbook protocol's view.
// An id that ends the round with no block — a read of a block that was
// never written — leaves no position behind, so absent reads, however
// many, grow no trusted state.
//
// Any error leaves the tree inconsistent — the position map already
// points at the new leaves, blocks may have left the stash for buckets
// that were never stored — so the client latches it (Client.runTree).
// ctx is the round's context: under a traced bundle the round is an
// "oram.batch" span of that trace.
func (t *tree) accessBatch(ctx context.Context, ops []BatchOp, out [][]byte) (err error) {
	n := len(ops)
	tm := &t.obs.tm
	// One span times the round for the latency series and, under a traced
	// bundle, is its "oram.batch" node — a single access included, so a
	// trace shows every round its request caused. Attribute values are
	// sizes and the public shard index only — never block ids or leaf
	// positions (the secretflow sink discipline).
	latency := tm.batch
	if n == 1 {
		latency = tm.single
	}
	sp, _ := t.obs.reg.StartSpan(ctx, "oram.batch")
	sp.AddInt("shard", int64(t.shard))
	sp.AddInt("blocks", int64(n))
	defer sp.End(latency, &err)
	bytesBefore := t.bytesMoved

	// Remap every block before touching the server (obliviousness
	// requirement): each op draws its own uniform leaf, so the
	// adversary-visible leaf sequence of a batch is distributed exactly
	// as for the same ops issued one by one.
	leaves, newLeaves := t.oldLeaves[:0], t.newLeaves[:0]
	for _, op := range ops {
		leaf, known := t.pos[op.ID]
		if !known {
			leaf = t.rng.Uint64n(t.leaves)
		}
		nl := t.rng.Uint64n(t.leaves)
		leaves = append(leaves, leaf)
		newLeaves = append(newLeaves, nl)
		t.pos[op.ID] = nl
	}
	t.oldLeaves, t.newLeaves = leaves, newLeaves

	// Absorb each path once; buckets shared between paths of the batch
	// are decrypted only once.
	t.seenNodes = t.seenNodes[:0]
	paths, err := t.server.ReadPaths(leaves)
	if err != nil {
		return err
	}
	if len(paths) != n {
		return fmt.Errorf("%w: got %d paths, want %d", ErrBadBucket, len(paths), n)
	}
	for i, path := range paths {
		if err := t.absorbPath(leaves[i], path); err != nil {
			return err
		}
	}

	for i, op := range ops {
		out[i] = nil
		blk, ok := t.stash[op.ID]
		if ok {
			blk.leaf = newLeaves[i]
			data := make([]byte, BlockSize)
			copy(data, blk.data)
			out[i] = data
		}
		if op.Op == OpWrite {
			if !ok {
				blk = getBlockStruct()
				blk.id = op.ID
				t.stash[op.ID] = blk //hardtape:pool-ok stash takes custody; eviction recycles via putBlockStruct
			}
			blk.leaf = newLeaves[i]
			m := copy(blk.data, op.Data)
			for j := m; j < BlockSize; j++ {
				blk.data[j] = 0
			}
		}
	}

	// After the whole op loop, not per op: a read-then-write of one
	// fresh id inside the batch ends with a block and keeps its position.
	for _, op := range ops {
		if _, ok := t.stash[op.ID]; !ok {
			delete(t.pos, op.ID)
		}
	}

	if err := t.evict(leaves); err != nil {
		return err
	}
	err = t.server.WritePaths(leaves, t.outPaths)
	t.releaseSealed()
	if err != nil {
		return err
	}

	t.accesses += uint64(n)
	if n > 1 {
		t.batches++
	}
	if len(t.stash) > t.maxStash {
		t.maxStash = len(t.stash)
	}
	tm.accesses.Add(uint64(n))
	tm.batches.Inc()
	tm.bytes.Add(t.bytesMoved - bytesBefore)
	if n > 1 {
		tm.batchSize.Observe(float64(n))
	}
	tm.stash.Set(int64(len(t.stash)))
	tm.stashPeak.SetMax(int64(t.maxStash))
	if len(t.stash) > stashSafetyFactor*t.depth+BucketSize*(n-1) {
		return fmt.Errorf("%w: %d blocks at depth %d", ErrStashOverrun, len(t.stash), t.depth)
	}
	return nil
}

// absorbPath decrypts the buckets on leaf's path into the stash. Each
// real block is copied exactly once, into a pooled buffer; the
// decrypted bucket plaintext itself lives in a pooled scratch buffer.
// Buckets already seen by an earlier path of the same round are skipped
// (t.seenNodes carries the round's visited node set). The received
// ciphertexts are owned by the client (both MemServer and the TCP
// transport hand over fresh copies) and recycle to the cipher pool here
// once consumed.
func (t *tree) absorbPath(leaf uint64, encrypted [][]byte) error {
	idx := t.pathIdx
	if len(encrypted) > len(idx) {
		return fmt.Errorf("%w: %d buckets on a depth-%d path", ErrBadBucket, len(encrypted), len(idx))
	}
	pathIndicesInto(leaf, t.depth, idx)
	pt := getPlainBuf()
	defer putPlainBuf(pt)
	for i, ct := range encrypted {
		if len(ct) == 0 {
			continue // never-written bucket
		}
		if containsU64(t.seenNodes, idx[i]) {
			putCipherBuf(ct)
			encrypted[i] = nil
			continue
		}
		t.seenNodes = append(t.seenNodes, idx[i])
		ptb, err := t.crypt.openInto(idx[i], ct, pt[:0])
		if err != nil {
			return err
		}
		t.bytesMoved += uint64(len(ct))
		putCipherBuf(ct)
		encrypted[i] = nil
		bkt := &t.scratchBkt
		if err := parseBucketInto(bkt, ptb); err != nil {
			return err
		}
		for _, s := range bkt.slots {
			if uint64(s.id) == dummyID {
				continue
			}
			if _, ok := t.stash[s.id]; ok {
				// The stash copy is authoritative: a block lives in
				// exactly one place, so a tree copy next to a stash
				// copy can only be a stale duplicate.
				continue
			}
			blk := getBlockStruct()
			blk.id, blk.leaf = s.id, s.leaf
			copy(blk.data, s.data)
			t.stash[s.id] = blk //hardtape:pool-ok stash takes custody; eviction recycles via putBlockStruct
		}
	}
	return nil
}

// containsU64 reports whether v is in s (linear scan: round node sets
// are tens of entries, where a map would hash and allocate).
func containsU64(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// evict greedily pushes stash blocks as deep as possible into the union
// of the just-read paths' buckets, seals each unique bucket once, and
// leaves the per-path bucket lists in t.outPaths for the caller to
// write back. Buckets shared between paths carry the same ciphertext in
// every containing path, so the server state is identical to writing
// the deduplicated set.
//
// Instead of rescanning the whole stash per level (O(stash·depth)),
// blocks are bucketed once by the deepest level at which their own path
// meets a path of the round; a block with meeting level L can live in
// its ancestor bucket at any level ≤ L (the union of root-to-leaf paths
// is ancestor-closed), so unplaced blocks cascade toward the root as
// the fill proceeds deepest-first. With one leaf this is the textbook
// single-path eviction.
func (t *tree) evict(leaves []uint64) error {
	depth := t.depth
	base := uint64(1) << (depth - 1) // heap index of leaf 0

	// Unique path nodes, level-major: nodes[offs[l]:offs[l+1]] holds
	// level l's nodes in first-occurrence order.
	nodes, offs := t.nodes[:0], t.offs[:0]
	for level := 0; level < depth; level++ {
		offs = append(offs, len(nodes))
		shift := uint(depth - 1 - level)
		for _, leaf := range leaves {
			nd := (leaf + base) >> shift
			if !containsU64(nodes[offs[level]:], nd) {
				nodes = append(nodes, nd)
			}
		}
	}
	offs = append(offs, len(nodes))
	t.nodes, t.offs = nodes, offs

	// Reset the bucket scratch, one (empty) bucket per unique node.
	if cap(t.bkts) < len(nodes) {
		t.bkts = make([]bucket, len(nodes))
		t.fill = make([]int, len(nodes))
		t.cts = make([][]byte, len(nodes))
	}
	bkts, fill := t.bkts[:len(nodes)], t.fill[:len(nodes)]
	for i := range bkts {
		fill[i] = 0
		for si := range bkts[i].slots {
			bkts[i].slots[si].id = BlockID(dummyID)
			bkts[i].slots[si].data = nil
		}
	}

	lists := t.levelLists
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	for _, blk := range t.stash {
		meet := 0
		for _, leaf := range leaves {
			if l := intersectLevel(blk.leaf, leaf, depth); l > meet {
				meet = l
			}
		}
		lists[meet] = append(lists[meet], blk)
	}

	carry := t.carry[:0]
	for level := depth - 1; level >= 0; level-- {
		carry = append(carry, lists[level]...)
		seg := nodes[offs[level]:offs[level+1]]
		shift := uint(depth - 1 - level)
		kept := carry[:0]
		for _, blk := range carry {
			nd := (blk.leaf + base) >> shift
			bi := -1
			for j, x := range seg {
				if x == nd {
					bi = offs[level] + j
					break
				}
			}
			if bi < 0 || fill[bi] == BucketSize {
				kept = append(kept, blk)
				continue
			}
			bkts[bi].slots[fill[bi]] = *blk
			fill[bi]++
			delete(t.stash, blk.id)
			blk.data = nil // ownership moved into the bucket slot
			putBlockStruct(blk)
		}
		carry = kept
	}
	//hardtape:pool-ok scratch slice keeps capacity only; leftover blocks remain stash-owned
	t.carry = carry[:0]

	pt := getPlainBuf()
	defer putPlainBuf(pt)
	cts := t.cts[:len(nodes)]
	for i := range bkts {
		bkts[i].serializeInto(pt)
		for si := 0; si < fill[i]; si++ {
			putBlockBuf(bkts[i].slots[si].data)
			bkts[i].slots[si].data = nil
		}
		ct, err := t.crypt.sealInto(nodes[i], pt, getCipherBuf())
		if err != nil {
			return err
		}
		cts[i] = ct
		t.bytesMoved += uint64(len(ct))
	}

	// Expand the deduplicated set to per-path bucket lists; duplicates
	// share one ciphertext slice (idempotent rewrites server-side).
	if cap(t.outFlat) < len(leaves)*depth {
		t.outFlat = make([][]byte, len(leaves)*depth)
		t.outPaths = make([][][]byte, 0, len(leaves))
	}
	flat := t.outFlat[:len(leaves)*depth]
	outPaths := t.outPaths[:0]
	for i, leaf := range leaves {
		path := flat[i*depth : (i+1)*depth]
		for level := 0; level < depth; level++ {
			nd := (leaf + base) >> uint(depth-1-level)
			seg := nodes[offs[level]:offs[level+1]]
			for j, x := range seg {
				if x == nd {
					path[level] = cts[offs[level]+j]
					break
				}
			}
		}
		outPaths = append(outPaths, path)
	}
	t.outPaths = outPaths
	return nil
}

// releaseSealed recycles the ciphertexts evict sealed once the server
// has stored (copies of) them.
func (t *tree) releaseSealed() {
	cts := t.cts[:len(t.nodes)]
	for i := range cts {
		putCipherBuf(cts[i])
		cts[i] = nil
	}
	flat := t.outFlat[:len(t.outPaths)*t.depth]
	for i := range flat {
		flat[i] = nil
	}
}

// stats snapshots the tree's counters.
func (t *tree) stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Accesses:   t.accesses,
		Batches:    t.batches,
		MaxStash:   t.maxStash,
		StashSize:  len(t.stash),
		BytesMoved: t.bytesMoved,
		Depth:      t.depth,
	}
}
