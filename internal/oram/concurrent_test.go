package oram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

const (
	concWorkers = 8
	concIDs     = 64
	concRounds  = 60
	concBatch   = 6
)

// concWorker is one goroutine of the concurrent-client tests. Every id
// is written only by its owner (id % concWorkers), so each worker knows
// its own ids' contents exactly and the final contents are a map oracle;
// reads range over all ids, so workers' rounds overlap on every tree.
type concWorker struct {
	g      int
	cli    *Client
	rng    *mrand.Rand
	oracle map[BlockID]string
	ver    int
	// touched counts the rounds this worker issued per shard.
	touched []int
}

func newConcWorker(g int, cli *Client) *concWorker {
	return &concWorker{
		g: g, cli: cli,
		rng:     mrand.New(mrand.NewSource(int64(g) + 1)),
		oracle:  make(map[BlockID]string),
		touched: make([]int, len(cli.trees)),
	}
}

func (w *concWorker) anyID() BlockID { return BlockID(w.rng.Intn(concIDs)) }

func (w *concWorker) ownID() BlockID {
	return BlockID(w.rng.Intn(concIDs/concWorkers)*concWorkers + w.g)
}

// check validates one returned block: exact for the worker's own ids,
// nil or an owner-tagged value for anyone else's.
func (w *concWorker) check(id BlockID, got []byte) error {
	got = bytes.TrimRight(got, "\x00")
	if int(id)%concWorkers == w.g {
		if want := w.oracle[id]; string(got) != want {
			return fmt.Errorf("worker %d: block %d = %q, want %q", w.g, id, got, want)
		}
		return nil
	}
	if prefix := fmt.Sprintf("g%d-id%d-", int(id)%concWorkers, id); got != nil && !bytes.HasPrefix(got, []byte(prefix)) {
		return fmt.Errorf("worker %d: block %d = %q, want nil or %s…", w.g, id, got, prefix)
	}
	return nil
}

func (w *concWorker) value(id BlockID) string {
	w.ver++
	return fmt.Sprintf("g%d-id%d-v%d", w.g, id, w.ver)
}

// count records one round over ids: one tree round per shard it touches.
func (w *concWorker) count(ids ...BlockID) {
	k := len(w.cli.trees)
	seen := make([]bool, k)
	for _, id := range ids {
		seen[shardOf(id, k)] = true
	}
	for sh, hit := range seen {
		if hit {
			w.touched[sh]++
		}
	}
}

// step issues the worker's i-th round, cycling a single read, a single
// write, a read-only batch and a mixed batch, and validates what it
// returns.
func (w *concWorker) step(i int) error {
	ctx := context.Background()
	switch i % 4 {
	case 0:
		id := w.anyID()
		got, err := readOne(ctx, w.cli, id)
		if err != nil {
			return err
		}
		w.count(id)
		return w.check(id, got)
	case 1:
		id := w.ownID()
		v := w.value(id)
		if err := writeOne(w.cli, id, []byte(v)); err != nil {
			return err
		}
		w.count(id)
		w.oracle[id] = v
		return nil
	case 2:
		ids := make([]BlockID, concBatch)
		for j := range ids {
			ids[j] = w.anyID()
		}
		got, err := readMany(ctx, w.cli, ids)
		if err != nil {
			return err
		}
		w.count(ids...)
		for j, id := range ids {
			if err := w.check(id, got[j]); err != nil {
				return err
			}
		}
		return nil
	default:
		ops := make([]BatchOp, concBatch)
		ids := make([]BlockID, concBatch)
		for j := range ops {
			if j%2 == 0 {
				id := w.ownID()
				ops[j] = BatchOp{Op: OpWrite, ID: id, Data: []byte(w.value(id))}
			} else {
				ops[j] = BatchOp{Op: OpRead, ID: w.anyID()}
			}
			ids[j] = ops[j].ID
		}
		got, err := w.cli.AccessBatch(ctx, ops)
		if err != nil {
			return err
		}
		w.count(ids...)
		for j, op := range ops {
			if err := w.check(op.ID, got[j]); err != nil {
				return err
			}
			if op.Op == OpWrite {
				w.oracle[op.ID] = string(op.Data)
			}
		}
		return nil
	}
}

// wholeRounds splits one tree's adversary-visible event stream into
// rounds — a run of path reads followed by a run of path writes of the
// same leaf multiset — and returns how many there were. Two rounds
// interleaved on one tree show up as a write run whose leaves differ
// from the reads before it, or as fewer rounds than were issued.
func wholeRounds(events []AccessEvent) (int, error) {
	rounds := 0
	for i := 0; i < len(events); {
		var reads, writes []uint64
		for ; i < len(events) && !events[i].Write; i++ {
			reads = append(reads, events[i].Leaf)
		}
		for ; i < len(events) && events[i].Write; i++ {
			writes = append(writes, events[i].Leaf)
		}
		sort.Slice(reads, func(a, b int) bool { return reads[a] < reads[b] })
		sort.Slice(writes, func(a, b int) bool { return writes[a] < writes[b] })
		if len(reads) == 0 || fmt.Sprint(reads) != fmt.Sprint(writes) {
			return rounds, fmt.Errorf("round %d reads leaves %v but writes %v", rounds, reads, writes)
		}
		rounds++
	}
	return rounds, nil
}

// TestConcurrentClientWholeAccesses: eight goroutines share one client
// and mix every entry point on overlapping ids. The contents end equal
// to the map oracle, every stash stays within its bound, and on every
// shard the server sees whole Path ORAM accesses one after another —
// exactly one per tree round the workers issued.
func TestConcurrentClientWholeAccesses(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		cli, mems := newTestClient(t, k, 256)
		events := make([][]AccessEvent, k)
		for i, m := range mems {
			// The observer runs under the server's lock: one stream per shard.
			m.SetObserver(func(ev AccessEvent) { events[i] = append(events[i], ev) })
		}
		workers := make([]*concWorker, concWorkers)
		var wg sync.WaitGroup
		for g := range workers {
			workers[g] = newConcWorker(g, cli)
			wg.Add(1)
			go func(w *concWorker) {
				defer wg.Done()
				for i := 0; i < concRounds; i++ {
					if err := w.step(i); err != nil {
						t.Error(err)
						return
					}
				}
			}(workers[g])
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		for _, w := range workers {
			for id, want := range w.oracle {
				got, err := readOne(context.Background(), cli, id)
				if err != nil || string(bytes.TrimRight(got, "\x00")) != want {
					t.Fatalf("final block %d = %q, %v; want %q", id, got, err, want)
				}
			}
		}
		for sh, st := range cli.ShardStats() {
			if bound := stashSafetyFactor*st.Depth + BucketSize*(concBatch-1); st.MaxStash > bound {
				t.Fatalf("shard %d stash peaked at %d, bound %d", sh, st.MaxStash, bound)
			}
		}
		for sh := range mems {
			issued := 0
			for _, w := range workers {
				issued += w.touched[sh]
			}
			// The final oracle reads are single accesses on their owners.
			for _, w := range workers {
				for id := range w.oracle {
					if shardOf(id, k) == sh {
						issued++
					}
				}
			}
			rounds, err := wholeRounds(events[sh])
			if err != nil {
				t.Fatalf("shard %d: %v", sh, err)
			}
			if rounds != issued {
				t.Fatalf("shard %d served %d whole rounds, workers issued %d", sh, rounds, issued)
			}
		}
	})
}

// TestConcurrentClientFailsClosedForEveryone: one injected server fault
// on one shard latches the shared client, and every call any goroutine
// starts after that — on any tree, through any entry point — returns
// ErrClientFailed wrapping the fault.
func TestConcurrentClientFailsClosedForEveryone(t *testing.T) {
	forShards(t, func(t *testing.T, k int) {
		_, mems := newTestClient(t, k, 256)
		servers := make([]Server, k)
		for i, m := range mems {
			servers[i] = m
		}
		// Shard 0's 20th path write fails; the client calls its server
		// only under that tree's lock.
		servers[0] = &flakyServer{Server: mems[0], failWrite: 20}
		cli, err := NewClient(servers, testKey())
		if err != nil {
			t.Fatal(err)
		}

		var failed atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < concWorkers; g++ {
			wg.Add(1)
			go func(w *concWorker) {
				defer wg.Done()
				for i := 0; i < concRounds; i++ {
					after := failed.Load()
					err := w.step(i)
					switch {
					case err == nil && after:
						t.Errorf("worker %d: call %d succeeded after the client failed", w.g, i)
						return
					case err == nil:
					case !errors.Is(err, ErrClientFailed) || !errors.Is(err, errInjected):
						t.Errorf("worker %d: call %d returned %v, want ErrClientFailed wrapping the fault", w.g, i, err)
						return
					default:
						failed.Store(true)
					}
				}
			}(newConcWorker(g, cli))
		}
		wg.Wait()
		if !failed.Load() {
			t.Fatal("the injected fault never fired")
		}
		w := newConcWorker(0, cli)
		for i := 0; i < 4; i++ {
			if err := w.step(i); !errors.Is(err, ErrClientFailed) || !errors.Is(err, errInjected) {
				t.Fatalf("call kind %d after the workers stopped returned %v", i, err)
			}
		}
	})
}
