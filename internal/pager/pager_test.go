package pager

import (
	"bytes"
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
			if err := s.WriteAccountMeta(addr(1), meta); err != nil {
				t.Fatal(err)
			}
			got, err := s.ReadAccountMeta(addr(1))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Balance.Eq(meta.Balance) || got.Nonce != 42 ||
				got.CodeLen != 5000 || got.CodeHash != meta.CodeHash {
				t.Fatalf("meta round trip: %+v", got)
			}
			if _, err := s.ReadAccountMeta(addr(9)); !errors.Is(err, ErrPageNotFound) {
				t.Fatalf("missing meta: %v", err)
			}
		})
	}
}

func TestStorageGrouping(t *testing.T) {
	// Keys 0..31 share one group; key 32 starts another.
	g0, s0 := StorageGroupKey(hashOf(0))
	g5, s5 := StorageGroupKey(hashOf(5))
	g31, s31 := StorageGroupKey(hashOf(31))
	g32, s32 := StorageGroupKey(hashOf(32))
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
			a := addr(2)
			// Two records in the same group + one in another group.
			if err := s.WriteStorageRecord(a, hashOf(1), hashOf(0x11)); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteStorageRecord(a, hashOf(2), hashOf(0x22)); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteStorageRecord(a, hashOf(200), hashOf(0x33)); err != nil {
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
				got, found, err := s.ReadStorageRecord(a, tt.key)
				if err != nil || !found {
					t.Fatalf("read %s: found=%v err=%v", tt.key, found, err)
				}
				if got != tt.want {
					t.Fatalf("read %s = %s, want %s", tt.key, got, tt.want)
				}
			}
			// Unset key in an existing group reads zero (found).
			got, found, err := s.ReadStorageRecord(a, hashOf(3))
			if err != nil || !found || !got.IsZero() {
				t.Fatalf("unset-in-group: %s found=%v err=%v", got, found, err)
			}
			// Key in a missing group: not found, zero.
			got, found, err = s.ReadStorageRecord(a, hashOf(100))
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
			if err := s.WriteCode(ch, code); err != nil {
				t.Fatal(err)
			}
			if CodePages(uint32(len(code))) != 3 {
				t.Fatalf("CodePages = %d", CodePages(uint32(len(code))))
			}
			back, err := s.ReadCode(ch, uint32(len(code)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, code) {
				t.Fatal("code round trip mismatch")
			}
			// Single page fetch has fixed size.
			page, err := s.ReadCodePage(ch, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(page) != PageSize {
				t.Fatalf("page size %d", len(page))
			}
			// Missing page.
			if _, err := s.ReadCodePage(ch, 3); !errors.Is(err, ErrPageNotFound) {
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
	// Empty code writes a single zero page without error.
	s := NewStore(NewPlainBackend())
	if err := s.WriteCode(hashOf(1), nil); err != nil {
		t.Fatal(err)
	}
	code, err := s.ReadCode(hashOf(1), 0)
	if err != nil || code != nil {
		t.Fatalf("empty code: %x %v", code, err)
	}
}

func TestResponseSizesAreUniform(t *testing.T) {
	// The side-channel defense: every backend response is exactly 1 KB
	// regardless of query type.
	s := newORAMStore(t)
	a := addr(3)
	if err := s.WriteAccountMeta(a, &AccountMeta{Balance: uint256.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteStorageRecord(a, hashOf(1), hashOf(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCode(hashOf(0xcd), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	backend := s.backend
	for name, key := range map[string]PageKey{
		"meta":    {Kind: KindAccountMeta, Addr: a},
		"storage": {Kind: KindStorageGroup, Addr: a, Group: mustGroup(hashOf(1))},
		"code":    {Kind: KindCodePage, CodeHash: hashOf(0xcd), Index: 0},
	} {
		page, err := backend.ReadPage(key)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(page) != PageSize {
			t.Fatalf("%s response size %d != %d", name, len(page), PageSize)
		}
	}
}

func mustGroup(key types.Hash) types.Hash {
	g, _ := StorageGroupKey(key)
	return g
}

func TestPlainBackendValidation(t *testing.T) {
	b := NewPlainBackend()
	if err := b.WritePage(PageKey{Kind: KindAccountMeta}, []byte("short")); !errors.Is(err, ErrBadPage) {
		t.Fatalf("short page: %v", err)
	}
	if _, err := b.ReadPage(PageKey{Kind: KindAccountMeta}); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("missing page: %v", err)
	}
	if err := b.WritePage(PageKey{Kind: KindAccountMeta}, make([]byte, PageSize)); err != nil {
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
	if p.Issued() != 1 {
		t.Fatal("issued counter")
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
	if p.Pending() != 0 || p.Issued() != 0 {
		t.Fatal("reset incomplete")
	}
}

// Property: storage read-after-write returns the written value for
// arbitrary keys, through real grouping.
func TestQuickStorageRoundTrip(t *testing.T) {
	s := NewStore(NewPlainBackend())
	a := addr(9)
	f := func(key, val [32]byte) bool {
		k, v := types.Hash(key), types.Hash(val)
		if err := s.WriteStorageRecord(a, k, v); err != nil {
			return false
		}
		got, found, err := s.ReadStorageRecord(a, k)
		return err == nil && found && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkORAMStorageRead(b *testing.B) {
	s := newORAMStore(b)
	a := addr(1)
	for i := byte(0); i < 64; i++ {
		if err := s.WriteStorageRecord(a, hashOf(i), hashOf(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ReadStorageRecord(a, hashOf(byte(i%64))); err != nil {
			b.Fatal(err)
		}
	}
}
