package oram

import (
	"bytes"
	"errors"
	"testing"
)

// Tests of the protocol primitives (buckets, cryptor, tree geometry).
// The client's behaviour is covered in client_test.go.

func testKey() []byte {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	return key
}

func TestBucketRelocationDetected(t *testing.T) {
	// Moving a ciphertext to a different bucket index must fail AD
	// authentication.
	c, err := newCryptor(testKey())
	if err != nil {
		t.Fatal(err)
	}
	pt := newEmptyBucket().serialize()
	ct, err := c.seal(5, pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.open(5, ct); err != nil {
		t.Fatalf("legitimate open failed: %v", err)
	}
	if _, err := c.open(6, ct); !errors.Is(err, ErrTampered) {
		t.Fatalf("relocated bucket accepted: %v", err)
	}
}

func TestRandomizedReEncryption(t *testing.T) {
	// The same plaintext sealed twice must produce different ciphertexts.
	c, err := newCryptor(testKey())
	if err != nil {
		t.Fatal(err)
	}
	pt := newEmptyBucket().serialize()
	ct1, err := c.seal(1, pt)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := c.seal(1, pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("re-encryption is deterministic — linkable ciphertexts")
	}
}

func TestPathIndices(t *testing.T) {
	// depth 3: heap nodes 1..7, leaves are 4,5,6,7 (leaf index 0..3).
	idx := pathIndices(0, 3)
	want := []uint64{1, 2, 4}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("pathIndices(0,3) = %v, want %v", idx, want)
		}
	}
	idx = pathIndices(3, 3)
	want = []uint64{1, 3, 7}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("pathIndices(3,3) = %v, want %v", idx, want)
		}
	}
	// All paths share the root.
	for leaf := uint64(0); leaf < 4; leaf++ {
		if pathIndices(leaf, 3)[0] != 1 {
			t.Fatal("all paths must include the root")
		}
	}
}

func TestBucketSerializationRoundTrip(t *testing.T) {
	b := newEmptyBucket()
	b.slots[0] = block{id: 7, leaf: 3, data: bytes.Repeat([]byte{0xaa}, BlockSize)}
	b.slots[2] = block{id: 9, leaf: 1, data: bytes.Repeat([]byte{0xbb}, BlockSize)}
	back, err := parseBucket(b.serialize())
	if err != nil {
		t.Fatal(err)
	}
	if back.slots[0].id != 7 || back.slots[0].leaf != 3 || back.slots[0].data[0] != 0xaa {
		t.Fatal("slot 0 mismatch")
	}
	if uint64(back.slots[1].id) != dummyID || back.slots[1].data != nil {
		t.Fatal("dummy slot should stay dummy")
	}
	if back.slots[2].id != 9 {
		t.Fatal("slot 2 mismatch")
	}
	if _, err := parseBucket([]byte("short")); !errors.Is(err, ErrBadBucket) {
		t.Fatalf("short bucket: %v", err)
	}
}

func TestTreeDepth(t *testing.T) {
	tests := []struct {
		capacity uint64
		want     int
	}{
		{2, 2}, {4, 2}, {8, 2}, {9, 3}, {16, 3}, {64, 5}, {1024, 9},
	}
	for _, tt := range tests {
		if got := treeDepth(tt.capacity); got != tt.want {
			t.Errorf("treeDepth(%d) = %d, want %d", tt.capacity, got, tt.want)
		}
	}
}
