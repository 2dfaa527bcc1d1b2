package keccak

import (
	"bytes"
	"encoding/hex"
	"sync"
	"testing"
	"testing/quick"
)

// Known-answer tests from the Ethereum ecosystem.
func TestKnownAnswers(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		// Empty string: the famous Ethereum empty-hash constant.
		{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
		// keccak256("abc")
		{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
		// keccak256("testing")
		{"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"},
		// keccak256("The quick brown fox jumps over the lazy dog")
		{"The quick brown fox jumps over the lazy dog",
			"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	}
	for _, tt := range tests {
		got := Sum256([]byte(tt.in))
		if hex.EncodeToString(got[:]) != tt.want {
			t.Errorf("Sum256(%q) = %x, want %s", tt.in, got, tt.want)
		}
	}
}

// keccak256 of a full rate block boundary and beyond.
func TestBlockBoundaries(t *testing.T) {
	for _, n := range []int{1, 135, 136, 137, 271, 272, 273, 1000, 4096} {
		data := bytes.Repeat([]byte{0xa5}, n)
		// Hash in one shot vs 7-byte writes must agree.
		oneShot := Sum256(data)
		var chunks [][]byte
		for i := 0; i < n; i += 7 {
			chunks = append(chunks, data[i:min(i+7, n)])
		}
		var got [Size]byte
		HashInto(got[:], chunks...)
		if got != oneShot {
			t.Errorf("n=%d: incremental %x != one-shot %x", n, got, oneShot)
		}
	}
}

func TestReset(t *testing.T) {
	var h state
	_, _ = h.Write([]byte("garbage"))
	h.Reset()
	_, _ = h.Write([]byte("abc"))
	var got [Size]byte
	h.sumInto(got[:])
	if want := Sum256([]byte("abc")); got != want {
		t.Errorf("after reset: got %x want %x", got, want)
	}
}

// TestSizes: Keccak-256 absorbs 1088-bit blocks (a 512-bit capacity).
func TestSizes(t *testing.T) {
	if Size != 32 || rate != 136 {
		t.Errorf("Size = %d, rate = %d", Size, rate)
	}
}

// Property: splitting the input at any point yields the same digest.
func TestQuickSplitInvariance(t *testing.T) {
	f := func(data []byte, split uint8) bool {
		i := min(int(split), len(data))
		var got [Size]byte
		HashInto(got[:], data[:i], data[i:])
		return got == Sum256(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A pooled sponge must agree with the one-shot function across Reset
// reuse, and so must the pooled Into helper.
func TestSpongeMatchesSum256(t *testing.T) {
	inputs := [][]byte{nil, []byte("abc"), bytes.Repeat([]byte{0x5a}, 137)}
	var h state
	for _, in := range inputs {
		h.Reset()
		_, _ = h.Write(in)
		want := Sum256(in)
		var got [Size]byte
		h.sumInto(got[:])
		if got != want {
			t.Errorf("sponge(%q) = %x, want %x", in, got, want)
		}

		var into [Size]byte
		Sum256Into(into[:], in)
		if into != want {
			t.Errorf("Sum256Into(%q) = %x, want %x", in, into, want)
		}
	}
}

func TestSpongeSumInto(t *testing.T) {
	var h state
	_, _ = h.Write([]byte("hello world"))
	var out [Size]byte
	h.sumInto(out[:])
	want := Sum256([]byte("hello world"))
	if out != want {
		t.Errorf("sumInto = %x, want %x", out, want)
	}
}

func TestHashInto(t *testing.T) {
	want := Sum256([]byte("foobarbaz"))
	var got [Size]byte
	HashInto(got[:], []byte("foo"), []byte("bar"), []byte("baz"))
	if got != want {
		t.Errorf("HashInto = %x, want %x", got, want)
	}
}

// Pooled helpers must leave no residue: interleaved concurrent use
// from many goroutines yields correct digests (run with -race).
func TestSum256IntoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(g)}, 64+g)
			want := Sum256(data)
			for i := 0; i < 200; i++ {
				var got [Size]byte
				Sum256Into(got[:], data)
				if got != want {
					t.Errorf("goroutine %d iter %d: %x != %x", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSum256IntoAllocs(t *testing.T) {
	data := make([]byte, 64)
	var out [Size]byte
	allocs := testing.AllocsPerRun(100, func() {
		Sum256Into(out[:], data)
	})
	if allocs > 0 {
		t.Errorf("Sum256Into allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkSum256_1KB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkSum256_32B(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
