package mpt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyRootConstant(t *testing.T) {
	// The canonical empty-trie root from the Ethereum yellow paper.
	want := "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
	if hex.EncodeToString(EmptyRoot[:]) != want {
		t.Fatalf("EmptyRoot = %x, want %s", EmptyRoot, want)
	}
	if New().Hash() != EmptyRoot {
		t.Fatal("empty trie hash != EmptyRoot")
	}
}

func TestKnownRoots(t *testing.T) {
	// Vectors checked against go-ethereum's trie implementation.
	t.Run("single entry", func(t *testing.T) {
		tr := New()
		if err := tr.Put([]byte("A"), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")); err != nil {
			t.Fatal(err)
		}
		want := "d23786fb4a010da3ce639d66d5e904a11dbc02746d1ce25029e53290cabf28ab"
		if got := hex.EncodeToString(hash32(tr)); got != want {
			t.Fatalf("root = %s, want %s", got, want)
		}
	})
	t.Run("ethereum foundation vector", func(t *testing.T) {
		// The classic "doe/reindeer" vector from the Ethereum wiki.
		tr := New()
		put(t, tr, "doe", "reindeer")
		put(t, tr, "dog", "puppy")
		put(t, tr, "dogglesworth", "cat")
		want := "8aad789dff2f538bca5d8ea56e8abe10f4c7ba3a5dea95fea4cd6e7c3a1168d3"
		if got := hex.EncodeToString(hash32(tr)); got != want {
			t.Fatalf("root = %s, want %s", got, want)
		}
	})
}

func hash32(tr *Trie) []byte {
	h := tr.Hash()
	return h[:]
}

func put(t *testing.T, tr *Trie, k, v string) {
	t.Helper()
	if err := tr.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("Put(%q): %v", k, err)
	}
}

func TestPutGetDelete(t *testing.T) {
	tr := New()
	kv := map[string]string{
		"do": "verb", "dog": "puppy", "doge": "coin", "horse": "stallion",
	}
	for k, v := range kv {
		put(t, tr, k, v)
	}
	for k, v := range kv {
		got, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("Get(%q) = %q, want %q", k, got, v)
		}
	}
	if _, err := tr.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatal("absent key should return ErrNotFound")
	}
	// Overwrite.
	put(t, tr, "dog", "hound")
	if got, _ := tr.Get([]byte("dog")); string(got) != "hound" {
		t.Fatalf("overwrite failed: %q", got)
	}
	// Delete and verify the rest survive.
	if err := tr.Delete([]byte("dog")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get([]byte("dog")); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key still present")
	}
	if got, _ := tr.Get([]byte("doge")); string(got) != "coin" {
		t.Fatalf("sibling key lost after delete: %q", got)
	}
	if err := tr.Delete([]byte("never")); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleting a missing key should be ErrNotFound")
	}
}

func TestInputValidation(t *testing.T) {
	tr := New()
	if err := tr.Put(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Error("empty key Put")
	}
	if err := tr.Put([]byte("k"), nil); !errors.Is(err, ErrEmptyValue) {
		t.Error("empty value Put")
	}
	if _, err := tr.Get(nil); !errors.Is(err, ErrEmptyKey) {
		t.Error("empty key Get")
	}
	if err := tr.Delete(nil); !errors.Is(err, ErrEmptyKey) {
		t.Error("empty key Delete")
	}
	if _, err := tr.Prove(nil); !errors.Is(err, ErrEmptyKey) {
		t.Error("empty key Prove")
	}
}

func TestDeleteToEmpty(t *testing.T) {
	tr := New()
	put(t, tr, "a", "1")
	put(t, tr, "b", "2")
	if err := tr.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if tr.Hash() != EmptyRoot {
		t.Fatal("trie should collapse to empty root")
	}
}

func TestRootIsInsertionOrderIndependent(t *testing.T) {
	keys := []string{"abc", "abd", "xyz", "x", "abcdef", "q"}
	tr1, tr2 := New(), New()
	for _, k := range keys {
		put(t, tr1, k, "v-"+k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		put(t, tr2, keys[i], "v-"+keys[i])
	}
	if tr1.Hash() != tr2.Hash() {
		t.Fatal("root depends on insertion order")
	}
}

func TestRootChangesOnMutation(t *testing.T) {
	tr := New()
	put(t, tr, "key", "v1")
	h1 := tr.Hash()
	put(t, tr, "key", "v2")
	h2 := tr.Hash()
	if h1 == h2 {
		t.Fatal("root unchanged after value update")
	}
}

func TestProofPresence(t *testing.T) {
	tr := New()
	var keys [][]byte
	for i := 0; i < 200; i++ {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i*7919))
		v := []byte(fmt.Sprintf("value-%d", i))
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	root := tr.Hash()
	for i, k := range keys {
		proof, err := tr.Prove(k)
		if err != nil {
			t.Fatalf("Prove(%d): %v", i, err)
		}
		got, err := VerifyProof(root, k, proof)
		if err != nil {
			t.Fatalf("VerifyProof(%d): %v", i, err)
		}
		want := fmt.Sprintf("value-%d", i)
		if string(got) != want {
			t.Fatalf("proof value = %q, want %q", got, want)
		}
	}
}

func TestProofAbsence(t *testing.T) {
	tr := New()
	put(t, tr, "alpha", "1")
	put(t, tr, "beta", "2")
	root := tr.Hash()
	for _, absent := range []string{"gamma", "alphabet", "alp", "a"} {
		proof, err := tr.Prove([]byte(absent))
		if err != nil {
			t.Fatalf("Prove(%q): %v", absent, err)
		}
		got, err := VerifyProof(root, []byte(absent), proof)
		if err != nil {
			t.Fatalf("VerifyProof(%q): %v", absent, err)
		}
		if got != nil {
			t.Fatalf("absence proof for %q returned value %q", absent, got)
		}
	}
}

func TestProofTamperDetection(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		put(t, tr, fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i))
	}
	root := tr.Hash()
	key := []byte("key-25")
	proof, err := tr.Prove(key)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flipped byte in node", func(t *testing.T) {
		bad := &Proof{Nodes: make([][]byte, len(proof.Nodes))}
		for i, n := range proof.Nodes {
			cp := make([]byte, len(n))
			copy(cp, n)
			bad.Nodes[i] = cp
		}
		last := bad.Nodes[len(bad.Nodes)-1]
		last[len(last)-1] ^= 0x01
		if v, err := VerifyProof(root, key, bad); err == nil && v != nil {
			t.Fatalf("tampered proof accepted with value %q", v)
		}
	})
	t.Run("missing node", func(t *testing.T) {
		if len(proof.Nodes) < 2 {
			t.Skip("proof too short to truncate")
		}
		bad := &Proof{Nodes: proof.Nodes[:len(proof.Nodes)-1]}
		if _, err := VerifyProof(root, key, bad); !errors.Is(err, ErrProofMissing) {
			t.Fatalf("truncated proof: got %v, want ErrProofMissing", err)
		}
	})
	t.Run("wrong root", func(t *testing.T) {
		var badRoot [32]byte
		badRoot[0] = 0xde
		if _, err := VerifyProof(badRoot, key, proof); err == nil {
			t.Fatal("proof verified against wrong root")
		}
	})
	t.Run("empty proof", func(t *testing.T) {
		if _, err := VerifyProof(root, key, &Proof{}); !errors.Is(err, ErrProofMissing) {
			t.Fatalf("empty proof: got %v", err)
		}
	})
}

func TestProofAgainstEmptyTrie(t *testing.T) {
	v, err := VerifyProof(EmptyRoot, []byte("anything"), &Proof{})
	if err != nil || v != nil {
		t.Fatalf("empty-trie absence proof: v=%q err=%v", v, err)
	}
}

func TestSecureTrie(t *testing.T) {
	st := NewSecure()
	if err := st.Put([]byte("account-1"), []byte("state-1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("account-2"), []byte("state-2")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get([]byte("account-1"))
	if err != nil || string(got) != "state-1" {
		t.Fatalf("secure Get: %q, %v", got, err)
	}
	root := st.Hash()
	proof, err := st.Prove([]byte("account-2"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := VerifySecureProof(root, []byte("account-2"), proof)
	if err != nil || string(v) != "state-2" {
		t.Fatalf("secure proof: %q, %v", v, err)
	}
	if err := st.Delete([]byte("account-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get([]byte("account-1")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
	if got, err := st.Get([]byte("account-2")); err != nil || string(got) != "state-2" {
		t.Fatalf("surviving key: %q, %v", got, err)
	}
}

// Property: the trie agrees with a reference map under a random
// operation sequence, and its root is a pure function of contents.
func TestQuickTrieMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ref := map[string]string{}
		for op := 0; op < 300; op++ {
			k := fmt.Sprintf("k%d", rng.Intn(60))
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", rng.Intn(1000))
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
				ref[k] = v
			case 2:
				err := tr.Delete([]byte(k))
				_, existed := ref[k]
				if existed != (err == nil) {
					return false
				}
				delete(ref, k)
			}
		}
		// Contents must agree (the root check below rules out extras).
		for k, v := range ref {
			got, err := tr.Get([]byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		// Root must equal a fresh trie of the same contents.
		fresh := New()
		for k, v := range ref {
			if err := fresh.Put([]byte(k), []byte(v)); err != nil {
				return false
			}
		}
		return tr.Hash() == fresh.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every key in a random trie yields a verifying proof, and a
// proof never verifies a different value.
func TestQuickProofs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		n := 20 + rng.Intn(80)
		keys := make([][]byte, n)
		for i := range keys {
			k := make([]byte, 4+rng.Intn(12))
			rng.Read(k)
			keys[i] = k
			if err := tr.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
				return false
			}
		}
		root := tr.Hash()
		for i, k := range keys {
			proof, err := tr.Prove(k)
			if err != nil {
				return false
			}
			v, err := VerifyProof(root, k, proof)
			if err != nil {
				return false
			}
			// Duplicate random keys may overwrite; just require the
			// proven value to match the current trie value.
			cur, err := tr.Get(k)
			if err != nil || !bytes.Equal(v, cur) {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTriePut(b *testing.B) {
	tr := New()
	var k [8]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i))
		if err := tr.Put(k[:], k[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrieHash1000(b *testing.B) {
	tr := New()
	var k [8]byte
	for i := 0; i < 1000; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i))
		if err := tr.Put(k[:], k[:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Hash()
	}
}

func BenchmarkProve(b *testing.B) {
	tr := New()
	var k [8]byte
	for i := 0; i < 1000; i++ {
		binary.BigEndian.PutUint64(k[:], uint64(i))
		if err := tr.Put(k[:], k[:]); err != nil {
			b.Fatal(err)
		}
	}
	binary.BigEndian.PutUint64(k[:], 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Prove(k[:]); err != nil {
			b.Fatal(err)
		}
	}
}
