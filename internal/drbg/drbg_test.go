package drbg

import (
	"slices"
	"testing"
)

// TestSeededNoiseStreamGolden pins the derivation: the first draws of
// the seed-1 swap-noise stream, as the HEVM's noise generator produced
// them before it moved here. A change to keying, buffering or rejection
// sampling moves every noise-dependent modeled number.
func TestSeededNoiseStreamGolden(t *testing.T) {
	r, err := New(1, "hardtape-noise-v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 6, 0, 4, 7, 7, 3, 2, 0, 5, 7, 5, 3, 3, 6, 6}
	got := make([]int, len(want))
	for i := range got {
		got[i] = r.Intn(9)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Intn(9) draws %v, want %v", got, want)
	}
}

// TestSeedPlusIndex: (seed, index) keys by their sum, so lane i at seed
// s repeats lane 0 at seed s+i, and labels separate streams.
func TestSeedPlusIndex(t *testing.T) {
	draws := func(seed int64, label string, index int) []uint64 {
		r, err := New(seed, label, index)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, 40) // crosses a keystream refill
		for i := range out {
			out[i] = r.Uint64n(1 << 62)
		}
		return out
	}
	if !slices.Equal(draws(3, "a", 2), draws(5, "a", 0)) {
		t.Error("seed 3 index 2 differs from seed 5 index 0")
	}
	if slices.Equal(draws(3, "a", 0), draws(3, "b", 0)) {
		t.Error("two labels drew the same stream")
	}
	if slices.Equal(draws(3, "a", 0), draws(3, "a", 1)) {
		t.Error("two indexes drew the same stream")
	}
}

// TestSeedZeroIsCryptoKeyed: seed 0 ignores the index and keys from
// crypto/rand, so two generators built alike still differ.
func TestSeedZeroIsCryptoKeyed(t *testing.T) {
	a, err := New(0, "hardtape-noise-v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(0, "hardtape-noise-v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 4; i++ {
		same = same && a.Uint64n(1<<62) == b.Uint64n(1<<62)
	}
	if same {
		t.Fatal("two seed-0 generators drew the same stream")
	}
}

func TestDrawsAllocateNothing(t *testing.T) {
	r, err := New(1, "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = r.Intn(9); _ = r.Uint64n(1 << 20) }); n != 0 {
		t.Fatalf("%v allocs per draw, want 0", n)
	}
}

func TestUint64nInRangeAndSpread(t *testing.T) {
	r, err := New(7, "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	var hits [5]int
	for i := 0; i < 5000; i++ {
		v := r.Uint64n(5)
		if v >= 5 {
			t.Fatalf("Uint64n(5) = %d", v)
		}
		hits[v]++
	}
	for v, h := range hits {
		if h < 800 || h > 1200 {
			t.Errorf("value %d drawn %d times of 5000", v, h)
		}
	}
}
