package hevm

import (
	"errors"
	"testing"
	"time"

	"hardtape/internal/drbg"
	"hardtape/internal/evm"
	"hardtape/internal/simclock"
	"hardtape/internal/types"
)

// seededNoise is the machine's noise stream at a model seed.
func seededNoise(t testing.TB, seed int64) *drbg.Rand {
	t.Helper()
	r, err := drbg.New(seed, NoiseLabel, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestMachine(t testing.TB, cfg Config) (*Machine, *simclock.Clock) {
	t.Helper()
	clock := simclock.NewClock()
	key := make([]byte, 32)
	m, err := New(cfg, clock, key, seededNoise(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m, clock
}

// enter/exit/touch drive the machine directly through its hooks.
func enter(m *Machine, depth, inputSize, codeSize int) {
	m.Hooks().OnCallEnter(evm.CallFrameInfo{Depth: depth, InputSize: inputSize, CodeSize: codeSize})
}

func exit(m *Machine, depth int) {
	m.Hooks().OnCallExit(evm.CallResultInfo{Depth: depth})
}

func touch(m *Machine, offset, size uint64) {
	m.Hooks().OnMemAccess(evm.MemAccess{Offset: offset, Size: size, Write: true})
}

func step(m *Machine, pc uint64, op evm.OpCode) {
	m.Hooks().OnStep(evm.StepInfo{PC: pc, Op: op, StackLen: 4})
}

func TestFramePageAccounting(t *testing.T) {
	m, _ := newTestMachine(t, DefaultConfig())
	enter(m, 0, 100, 2000)
	// Frame: stack 4*32 + input 100 + code 2000 + frame page 1024 ≈ 3252
	// → 4 pages after first memory touch updates stack.
	step(m, 0, evm.PUSH0)
	touch(m, 0, 32)
	if m.l2Used == 0 {
		t.Fatal("no pages allocated")
	}
	before := m.l2Used
	// Growing memory by 10 KB allocates ~10 more pages.
	touch(m, 0, 10*1024)
	if m.l2Used <= before {
		t.Fatalf("pages did not grow: %d -> %d", before, m.l2Used)
	}
	exit(m, 0)
	if m.l2Used != 0 {
		t.Fatalf("pages leaked after frame exit: %d", m.l2Used)
	}
}

func TestMemoryOverflowError(t *testing.T) {
	cfg := DefaultConfig()
	m, _ := newTestMachine(t, cfg)
	enter(m, 0, 0, 1000)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no overflow panic")
		}
		var moe *MemoryOverflowError
		err, ok := r.(error)
		if !ok || !errors.As(err, &moe) {
			t.Fatalf("panic value %v is not MemoryOverflowError", r)
		}
		if moe.Limit != cfg.FrameLimitBytes {
			t.Fatalf("limit = %d", moe.Limit)
		}
		if !m.Stats().Overflowed {
			t.Fatal("Overflowed flag not set")
		}
	}()
	// One frame growing past 512 KB must abort.
	touch(m, 0, cfg.FrameLimitBytes+1)
}

func TestL3SwapOnL2Pressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Bytes = 64 * 1024 // small L2: 64 pages
	cfg.FrameLimitBytes = 32 * 1024
	m, _ := newTestMachine(t, cfg)

	// Stack three frames of ~24 KB each — the third forces the first
	// frame's pages out to L3.
	for d := 0; d < 3; d++ {
		enter(m, d, 0, 1000)
		touch(m, 0, 24*1024)
	}
	if len(m.l3Store) == 0 {
		t.Fatal("no pages swapped to L3 under pressure")
	}
	evicted := false
	for _, ev := range m.SwapTrace() {
		if ev.Evict && ev.Pages > 0 {
			evicted = true
		}
	}
	if !evicted {
		t.Fatal("no evict events recorded")
	}

	// Returning to the bottom frame reloads its pages.
	exit(m, 2)
	exit(m, 1)
	cur := m.current()
	for _, p := range cur.pages {
		if cur.l3[p] {
			t.Fatal("current frame still has L3-resident pages after return")
		}
	}
	loads := 0
	for _, ev := range m.SwapTrace() {
		if !ev.Evict {
			loads += ev.Pages
		}
	}
	if loads == 0 {
		t.Fatal("no reload events recorded")
	}
}

func TestSwapNoiseVariesWithSeed(t *testing.T) {
	run := func(seed int64) []SwapEvent {
		cfg := DefaultConfig()
		cfg.L2Bytes = 64 * 1024
		cfg.FrameLimitBytes = 32 * 1024
		clock := simclock.NewClock()
		m, err := New(cfg, clock, make([]byte, 32), seededNoise(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 3; d++ {
			enter(m, d, 0, 1000)
			touch(m, 0, 24*1024)
		}
		exit(m, 2)
		exit(m, 1)
		return m.SwapTrace()
	}
	a := run(1)
	b := run(2)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("no swap traffic generated")
	}
	// Same workload, different noise seeds: observed page counts should
	// differ for at least one event (noise depends on RNG, not just the
	// contract) — this is the A5 defense.
	differs := len(a) != len(b)
	if !differs {
		for i := range a {
			if a[i].Pages != b[i].Pages {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Fatal("swap sizes identical across seeds — noise ineffective")
	}
}

func TestL3TamperDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Bytes = 64 * 1024
	cfg.FrameLimitBytes = 32 * 1024
	m, _ := newTestMachine(t, cfg)
	for d := 0; d < 3; d++ {
		enter(m, d, 0, 1000)
		touch(m, 0, 24*1024)
	}
	if !m.TamperL3() {
		t.Fatal("nothing in L3 to tamper")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("tampered L3 page reloaded without detection")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrL3Tampered) {
			t.Fatalf("panic = %v, want ErrL3Tampered", r)
		}
	}()
	exit(m, 2)
	exit(m, 1)
	// Depending on which page was tampered, reload may happen on either
	// exit; if we got here, force reload of everything.
	for len(m.l3Store) > 0 {
		exit(m, 0)
	}
}

func TestClockAdvancesWithWork(t *testing.T) {
	m, clock := newTestMachine(t, DefaultConfig())
	enter(m, 0, 0, 100)
	start := clock.Now()
	for i := 0; i < 1000; i++ {
		step(m, uint64(i%50), evm.ADD)
	}
	plain := clock.Now() - start
	if plain <= 0 {
		t.Fatal("clock did not advance")
	}
	// Wide ALU ops cost more.
	start = clock.Now()
	for i := 0; i < 1000; i++ {
		step(m, uint64(i%50), evm.MUL)
	}
	wide := clock.Now() - start
	if wide <= plain {
		t.Fatalf("MUL (%v) should cost more than ADD (%v)", wide, plain)
	}
}

func TestCodeCacheMissCharges(t *testing.T) {
	m, clock := newTestMachine(t, DefaultConfig())
	enter(m, 0, 0, 100*1024) // 100 KB contract exceeds the 64 KB cache
	touch(m, 0, 32)
	before := clock.Now()
	step(m, 70*1024, evm.JUMPDEST) // beyond the cache window
	withMiss := clock.Now() - before
	before = clock.Now()
	step(m, 70*1024+1, evm.ADD) // same page, now resident
	noMiss := clock.Now() - before
	if withMiss <= noMiss {
		t.Fatalf("code-page miss (%v) should cost more than a hit (%v)", withMiss, noMiss)
	}
}

func TestResetClearsEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Bytes = 64 * 1024
	cfg.FrameLimitBytes = 32 * 1024
	m, _ := newTestMachine(t, cfg)
	for d := 0; d < 3; d++ {
		enter(m, d, 0, 1000)
		touch(m, 0, 24*1024)
	}
	m.Reset()
	s := m.Stats()
	if s.Steps != 0 || s.SwapEvents != 0 || s.L2PagesUsed != 0 || len(m.l3Store) != 0 {
		t.Fatalf("reset incomplete: %+v l3=%d", s, len(m.l3Store))
	}
	if m.current() != nil {
		t.Fatal("frames survived reset")
	}
}

func TestBadKey(t *testing.T) {
	if _, err := New(DefaultConfig(), simclock.NewClock(), []byte("short"), seededNoise(t, 1)); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestWSCacheLRU(t *testing.T) {
	c := NewWSCache()
	key := func(i int) WSCacheKey { return WSCacheKey{Key: types.Hash{30: byte(i >> 8), 31: byte(i)}} }
	v := [32]byte{1}
	for i := 0; i < WSCacheEntries; i++ {
		c.Put(key(i), v)
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing")
	}
	// Key 1 is now LRU; one more record evicts it.
	c.Put(key(WSCacheEntries), v)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("key 1 should have been evicted")
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 should survive (recently used)")
	}
	hits, misses := c.HitRate()
	if hits == 0 || misses == 0 {
		t.Fatalf("hit/miss accounting: %d/%d", hits, misses)
	}
}

func TestWSCacheUpdateAndInvalidate(t *testing.T) {
	c := NewWSCache()
	k := WSCacheKey{Addr: types.MustAddress("0x1111111111111111111111111111111111111111"), Key: types.Hash{31: 5}}
	c.Put(k, [32]byte{1})
	c.Put(k, [32]byte{2}) // update, not duplicate
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	got, ok := c.Get(k)
	if !ok || got[0] != 2 {
		t.Fatalf("update lost: %v %v", got, ok)
	}
	// Bundle release invalidates every record.
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("clear failed")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("record survived clear")
	}
}

func TestWSCacheDefaultCapacity(t *testing.T) {
	c := NewWSCache()
	for i := 0; i < 100; i++ {
		c.Put(WSCacheKey{Key: types.Hash{31: byte(i)}}, [32]byte{byte(i)})
	}
	if c.Len() != 64 {
		t.Fatalf("capacity should be the paper's 64 entries, got %d", c.Len())
	}
}

func TestSwapEventTimestamps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Bytes = 64 * 1024
	cfg.FrameLimitBytes = 32 * 1024
	m, clock := newTestMachine(t, cfg)
	clock.Advance(time.Second)
	for d := 0; d < 3; d++ {
		enter(m, d, 0, 1000)
		touch(m, 0, 24*1024)
	}
	for _, ev := range m.SwapTrace() {
		if ev.At < time.Second {
			t.Fatalf("event timestamp %v before work began", ev.At)
		}
	}
}
