package pager

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"hardtape/internal/drbg"
	"hardtape/internal/oram"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

func addr(b byte) types.Address {
	var a types.Address
	a[19] = b
	return a
}

func hashOf(b byte) types.Hash {
	var h types.Hash
	h[31] = b
	return h
}

func newORAMStore(t testing.TB) *Store {
	t.Helper()
	srv, err := oram.NewMemServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, oram.KeySize)
	cli, err := oram.NewClient([]oram.Server{srv}, key)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(NewORAMBackend(cli))
}

func stores(t *testing.T) map[string]*Store {
	return map[string]*Store{
		"plain": NewStore(NewPlainBackend()),
		"oram":  newORAMStore(t),
	}
}

func TestAccountMetaRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			meta := &AccountMeta{
				Balance:  uint256.NewInt(123456789),
				Nonce:    42,
				CodeLen:  5000,
				CodeHash: hashOf(0xcc),
			}
			if err := s.WritePages(s.AccountPages(addr(1), meta, nil)); err != nil {
				t.Fatal(err)
			}
			got, err := s.ReadAccountMeta(context.Background(), addr(1))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Balance.Eq(meta.Balance) || got.Nonce != 42 ||
				got.CodeLen != 5000 || got.CodeHash != meta.CodeHash {
				t.Fatalf("meta round trip: %+v", got)
			}
			if _, err := s.ReadAccountMeta(context.Background(), addr(9)); !errors.Is(err, ErrPageNotFound) {
				t.Fatalf("missing meta: %v", err)
			}
		})
	}
}

func TestStorageGrouping(t *testing.T) {
	// Keys 0..31 share one group; key 32 starts another.
	g0, s0 := storageGroupKeyN(hashOf(0), RecordsPerPage)
	g5, s5 := storageGroupKeyN(hashOf(5), RecordsPerPage)
	g31, s31 := storageGroupKeyN(hashOf(31), RecordsPerPage)
	g32, s32 := storageGroupKeyN(hashOf(32), RecordsPerPage)
	if g0 != g5 || g5 != g31 {
		t.Fatal("keys 0..31 should share a group")
	}
	if g32 == g0 {
		t.Fatal("key 32 should start a new group")
	}
	if s0 != 0 || s5 != 5 || s31 != 31 || s32 != 0 {
		t.Fatalf("slots: %d %d %d %d", s0, s5, s31, s32)
	}
}

func TestStorageRecords(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			a := addr(2)
			// Two records in the same group + one in another group.
			recs := []StorageRecord{
				{Key: hashOf(1), Value: hashOf(0x11)},
				{Key: hashOf(2), Value: hashOf(0x22)},
				{Key: hashOf(200), Value: hashOf(0x33)},
			}
			keys, pages := s.AccountPages(a, &AccountMeta{Balance: uint256.NewInt(1)}, recs)
			if len(keys) != 3 || keys[0].Kind != KindAccountMeta {
				t.Fatalf("pages %+v, want the meta page then two groups", keys)
			}
			if err := s.WritePages(keys, pages); err != nil {
				t.Fatal(err)
			}
			for _, tt := range []struct {
				key  types.Hash
				want types.Hash
			}{
				{hashOf(1), hashOf(0x11)},
				{hashOf(2), hashOf(0x22)},
				{hashOf(200), hashOf(0x33)},
			} {
				got, found, err := s.ReadStorageRecord(ctx, a, tt.key)
				if err != nil || !found {
					t.Fatalf("read %s: found=%v err=%v", tt.key, found, err)
				}
				if got != tt.want {
					t.Fatalf("read %s = %s, want %s", tt.key, got, tt.want)
				}
			}
			// Unset key in an existing group reads zero (found).
			got, found, err := s.ReadStorageRecord(ctx, a, hashOf(3))
			if err != nil || !found || !got.IsZero() {
				t.Fatalf("unset-in-group: %s found=%v err=%v", got, found, err)
			}
			// Key in a missing group: not found, zero.
			got, found, err = s.ReadStorageRecord(ctx, a, hashOf(100))
			if err != nil || found || !got.IsZero() {
				t.Fatalf("missing group: %s found=%v err=%v", got, found, err)
			}
		})
	}
}

func TestCodePaging(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			// 2.5 pages of code.
			code := make([]byte, 2*PageSize+512)
			for i := range code {
				code[i] = byte(i * 31)
			}
			ch := hashOf(0xab)
			if err := s.WritePages(SplitCode(ch, code)); err != nil {
				t.Fatal(err)
			}
			if CodePages(uint32(len(code))) != 3 || s.Len() != 3 {
				t.Fatalf("CodePages = %d, stored %d", CodePages(uint32(len(code))), s.Len())
			}
			ctx := context.Background()
			back, err := s.ReadCode(ctx, ch, uint32(len(code)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, code) {
				t.Fatal("code round trip mismatch")
			}
			// Single page fetch has fixed size.
			page, err := s.ReadCodePage(ctx, ch, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(page) != PageSize {
				t.Fatalf("page size %d", len(page))
			}
			// Missing page.
			if _, err := s.ReadCodePage(ctx, ch, 3); !errors.Is(err, ErrPageNotFound) {
				t.Fatalf("missing page: %v", err)
			}
		})
	}
}

func TestCodePagesEdge(t *testing.T) {
	if CodePages(0) != 0 {
		t.Error("CodePages(0)")
	}
	if CodePages(1) != 1 || CodePages(PageSize) != 1 || CodePages(PageSize+1) != 2 {
		t.Error("CodePages boundaries")
	}
	// Empty code splits into no pages and writes nothing.
	s := NewStore(NewPlainBackend())
	if err := s.WritePages(SplitCode(hashOf(1), nil)); err != nil || s.Len() != 0 {
		t.Fatalf("empty code: %v, %d pages stored", err, s.Len())
	}
	code, err := s.ReadCode(context.Background(), hashOf(1), 0)
	if err != nil || code != nil {
		t.Fatalf("empty code: %x %v", code, err)
	}
}

func TestResponseSizesAreUniform(t *testing.T) {
	// The side-channel defense: every backend response is exactly 1 KB
	// regardless of query type.
	s := newORAMStore(t)
	a := addr(3)
	recs := []StorageRecord{{Key: hashOf(1), Value: hashOf(2)}}
	if err := s.WritePages(s.AccountPages(a, &AccountMeta{Balance: uint256.NewInt(1)}, recs)); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePages(SplitCode(hashOf(0xcd), make([]byte, 100))); err != nil {
		t.Fatal(err)
	}
	backend := s.backend
	for name, key := range map[string]PageKey{
		"meta":    {Kind: KindAccountMeta, Addr: a},
		"storage": {Kind: KindStorageGroup, Addr: a, Group: mustGroup(hashOf(1))},
		"code":    {Kind: KindCodePage, CodeHash: hashOf(0xcd), Index: 0},
	} {
		pages, err := backend.ReadPages(context.Background(), []PageKey{key})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if page := pages[0]; len(page) != PageSize {
			t.Fatalf("%s response size %d != %d", name, len(page), PageSize)
		}
	}
}

// TestORAMBackendAbsentReadIsOneAccess: a batch of n keys is n ORAM
// accesses in one round, whatever the dictionary holds — an absent key
// reads its never-written id, comes back nil, and maps nothing.
func TestORAMBackendAbsentReadIsOneAccess(t *testing.T) {
	srv, err := oram.NewMemServer(256)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := oram.NewClient([]oram.Server{srv}, make([]byte, oram.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	b := NewORAMBackend(cli)
	present := PageKey{Kind: KindAccountMeta, Addr: addr(1)}
	if err := b.WritePages([]PageKey{present}, [][]byte{make([]byte, PageSize)}); err != nil {
		t.Fatal(err)
	}
	paths := 0
	srv.SetObserver(func(ev oram.AccessEvent) {
		if !ev.Write {
			paths++
		}
	})
	keys := []PageKey{
		{Kind: KindAccountMeta, Addr: addr(2)},
		present,
		{Kind: KindStorageGroup, Addr: addr(1), Group: hashOf(32)},
		{Kind: KindCodePage, CodeHash: hashOf(7), Index: 3},
	}
	before := cli.Stats()
	pages, err := b.ReadPages(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	after := cli.Stats()
	if got := after.Accesses - before.Accesses; got != uint64(len(keys)) {
		t.Fatalf("%d keys cost %d accesses", len(keys), got)
	}
	if after.Batches-before.Batches != 1 || paths != len(keys) {
		t.Fatalf("want one round of %d paths: batches %d, paths %d", len(keys), after.Batches-before.Batches, paths)
	}
	for i, page := range pages {
		if (page != nil) != (keys[i] == present) {
			t.Fatalf("key %d: present %v", i, page != nil)
		}
	}
	if b.Len() != 1 {
		t.Fatalf("absent reads mapped pages: Len %d", b.Len())
	}
	seen := map[oram.BlockID]bool{}
	for _, key := range keys {
		id := absentID(key)
		if id&absentBit == 0 || uint64(id) == ^uint64(0) || seen[id] {
			t.Fatalf("absent id %x: top bit clear, the dummy id, or a repeat", id)
		}
		seen[id] = true
	}
}

func mustGroup(key types.Hash) types.Hash {
	g, _ := storageGroupKeyN(key, RecordsPerPage)
	return g
}

func TestPlainBackendValidation(t *testing.T) {
	b := NewPlainBackend()
	meta, other := PageKey{Kind: KindAccountMeta}, PageKey{Kind: KindCodePage}
	// A short page fails the whole write: nothing is stored.
	if err := b.WritePages([]PageKey{other, meta}, [][]byte{make([]byte, PageSize), []byte("short")}); !errors.Is(err, ErrBadPage) {
		t.Fatalf("short page: %v", err)
	}
	if err := b.WritePages([]PageKey{meta}, nil); !errors.Is(err, ErrBadPage) {
		t.Fatalf("pages for keys mismatch: %v", err)
	}
	if pages, err := b.ReadPages(context.Background(), []PageKey{meta}); err != nil || pages[0] != nil {
		t.Fatalf("missing page: %v %v", pages, err)
	}
	if b.Len() != 0 {
		t.Fatalf("a rejected write stored %d pages", b.Len())
	}
	if err := b.WritePages([]PageKey{meta}, [][]byte{make([]byte, PageSize)}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatal("Len")
	}
}

func TestPrefetcherQueuesTailPages(t *testing.T) {
	p := NewPrefetcher(seededRand(t, 1))
	p.QueueCode(hashOf(1), uint32(3*PageSize)) // 3 pages → queue pages 1,2
	if p.Pending() != 2 {
		t.Fatalf("pending = %d", p.Pending())
	}
	// Single-page code queues nothing.
	p.Reset()
	p.QueueCode(hashOf(2), 100)
	if p.Pending() != 0 {
		t.Fatalf("single-page pending = %d", p.Pending())
	}
}

// seededRand is a prefetcher stream at a model seed; two calls with one
// seed return twins.
func seededRand(t *testing.T, seed int64) *drbg.Rand {
	t.Helper()
	r, err := drbg.New(seed, PrefetchLabel, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPrefetcherInterval replays the prefetcher's draws on a twin
// generator and checks the timer fires exactly at the deadline they
// give.
func TestPrefetcherInterval(t *testing.T) {
	p := NewPrefetcher(seededRand(t, 1))
	twin := seededRand(t, 1)
	p.QueueCode(hashOf(1), uint32(10*PageSize)) // 9 queued

	// Real queries every 10 ms of virtual time. The first arms no timer
	// (no gap estimate yet); each later one draws once and re-arms it at
	// now + ¼·avg + U[0, ½·avg), with avg exactly 10 ms.
	gap := 10 * time.Millisecond
	var deadline time.Duration
	for i := 0; i < 8; i++ {
		now := time.Duration(i) * gap
		p.NotifyQuery(now)
		if i > 0 {
			deadline = now + gap/4 + time.Duration(twin.Uint64n(uint64(gap/2)))
		}
	}
	if _, ok := p.PopDue(deadline - 1); ok {
		t.Fatal("popped before the timer expired")
	}
	ref, ok := p.PopDue(deadline)
	if !ok {
		t.Fatal("pop at the deadline failed")
	}
	if ref.Index != 1 {
		t.Fatalf("first prefetched page = %d, want 1", ref.Index)
	}
	if p.Pending() != 8 {
		t.Fatalf("%d pages pending after one pop, want 8", p.Pending())
	}
}

func TestPrefetcherSpreadsQueries(t *testing.T) {
	// Issue real queries at fixed cadence and count how many prefetches
	// fire between consecutive real queries: should be ≈1 (the paper's
	// "insert a prefetch query in the middle of every two original
	// queries"), never a burst.
	p := NewPrefetcher(seededRand(t, 1))
	p.QueueCode(hashOf(1), uint32(40*PageSize))

	now := time.Duration(0)
	gap := 10 * time.Millisecond
	// Warm the average.
	for i := 0; i < 4; i++ {
		p.NotifyQuery(now)
		now += gap
	}
	maxBetween := 0
	for q := 0; q < 20; q++ {
		p.NotifyQuery(now)
		fired := 0
		// Poll the timer at 1 ms resolution until the next real query.
		for tick := time.Duration(0); tick < gap; tick += time.Millisecond {
			if _, ok := p.PopDue(now + tick); ok {
				fired++
			}
		}
		if fired > maxBetween {
			maxBetween = fired
		}
		now += gap
	}
	if maxBetween == 0 {
		t.Fatal("prefetcher never fired")
	}
	if maxBetween > 3 {
		t.Fatalf("prefetch burst of %d between two queries — pattern leaks", maxBetween)
	}
}

func TestPrefetcherReset(t *testing.T) {
	p := NewPrefetcher(seededRand(t, 1))
	p.QueueCode(hashOf(1), uint32(5*PageSize))
	p.NotifyQuery(time.Second)
	p.Reset()
	if p.Pending() != 0 {
		t.Fatal("reset incomplete")
	}
}

// Property: an account's pages, written blind from its full record set,
// read back every record it holds and zero for a key it does not, for
// arbitrary keys, through real grouping.
func TestQuickStorageRoundTrip(t *testing.T) {
	ctx := context.Background()
	a := addr(9)
	f := func(key, other, val [32]byte) bool {
		k, o, v := types.Hash(key), types.Hash(other), types.Hash(val)
		if k == o {
			return true
		}
		s := NewStore(NewPlainBackend())
		recs := []StorageRecord{{Key: k, Value: v}}
		if err := s.WritePages(s.AccountPages(a, &AccountMeta{Balance: uint256.NewInt(0)}, recs)); err != nil {
			return false
		}
		got, found, err := s.ReadStorageRecord(ctx, a, k)
		if err != nil || !found || got != v {
			return false
		}
		got, _, err = s.ReadStorageRecord(ctx, a, o)
		return err == nil && got.IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkORAMStorageRead(b *testing.B) {
	s := newORAMStore(b)
	ctx := context.Background()
	a := addr(1)
	recs := make([]StorageRecord, 64)
	for i := range recs {
		recs[i] = StorageRecord{Key: hashOf(byte(i)), Value: hashOf(byte(i) + 1)}
	}
	if err := s.WritePages(s.AccountPages(a, &AccountMeta{Balance: uint256.NewInt(0)}, recs)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ReadStorageRecord(ctx, a, hashOf(byte(i%64))); err != nil {
			b.Fatal(err)
		}
	}
}
