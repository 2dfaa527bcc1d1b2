package mpt

import (
	"bytes"
	"errors"
	"testing"

	"hardtape/internal/keccak"
)

// fuzzTrie builds a small trie from entries, one record per 3 bytes
// (a, b, c): key {a} or {a, b} (by c's low bit) and a value of 1 + c%40
// copies of c, so the trie mixes leaves, extensions, branches with
// values, embedded nodes and hashed (≥ 32-byte) nodes.
func fuzzTrie(entries []byte) *Trie {
	tr := New()
	for i := 0; i+3 <= len(entries) && i < 3*16; i += 3 {
		a, b, c := entries[i], entries[i+1], entries[i+2]
		key := []byte{a, b}[:1+c%2]
		_ = tr.Put(key, bytes.Repeat([]byte{c}, 1+int(c)%40))
	}
	return tr
}

// mutateProof applies edits to a copy of proof, one edit per 4 bytes
// (op, node, pos, val): xor a node byte with val, truncate a node,
// drop a node, or append a copy of a node with one byte replaced.
func mutateProof(proof *Proof, edits []byte) *Proof {
	nodes := make([][]byte, len(proof.Nodes))
	for i, n := range proof.Nodes {
		nodes[i] = append([]byte(nil), n...)
	}
	for i := 0; i+4 <= len(edits) && len(nodes) > 0; i += 4 {
		op, ni, pos, val := edits[i]%4, int(edits[i+1])%len(nodes), int(edits[i+2]), edits[i+3]
		n := nodes[ni]
		switch op {
		case 0:
			if len(n) > 0 {
				n[pos%len(n)] ^= val
			}
		case 1:
			if len(n) > 0 {
				nodes[ni] = n[:pos%len(n)]
			}
		case 2:
			nodes = append(nodes[:ni], nodes[ni+1:]...)
		case 3:
			cp := append([]byte(nil), n...)
			if len(cp) > 0 {
				cp[pos%len(cp)] = val
			}
			nodes = append(nodes, cp)
		}
	}
	return &Proof{Nodes: nodes}
}

// proofErr reports whether err is one of VerifyProof's typed errors.
func proofErr(err error) bool {
	return errors.Is(err, ErrBadProof) || errors.Is(err, ErrProofMissing) || errors.Is(err, ErrEmptyKey)
}

// FuzzVerifyProof builds a trie from the first input, proves the second
// input as a key, and mutates the proof with the third. VerifyProof
// must never panic and must fail only with a typed error; every proof
// it accepts against the trie's root must yield Trie.Get's value, or
// nil for an absent key, and an unmutated proof must be accepted. The
// mutated proof is also verified against the hash of its own first
// node, so the verifier walks attacker-chosen bytes; there only the
// no-panic and typed-error rules apply.
func FuzzVerifyProof(f *testing.F) {
	f.Fuzz(func(t *testing.T, entries, key, edits []byte) {
		if len(key) == 0 || len(key) > 4 {
			return
		}
		tr := fuzzTrie(entries)
		proof, err := tr.Prove(key)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tr.Get(key)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		bad := mutateProof(proof, edits)
		got, err := VerifyProof(tr.Hash(), key, bad)
		switch {
		case err != nil && !proofErr(err):
			t.Fatalf("untyped error: %v", err)
		case err != nil && len(edits) < 4:
			t.Fatalf("unmutated proof rejected: %v", err)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("accepted proof yields %x, trie holds %x", got, want)
		}
		if len(bad.Nodes) > 0 {
			var root [32]byte
			keccak.Sum256Into(root[:], bad.Nodes[0])
			if _, err := VerifyProof(root, key, bad); err != nil && !proofErr(err) {
				t.Fatalf("untyped error on a forged root: %v", err)
			}
		}
	})
}
