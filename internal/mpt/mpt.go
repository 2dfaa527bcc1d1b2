// Package mpt implements Ethereum's hexary Merkle Patricia Trie,
// the authenticated data structure backing the world state. It supports
// insert/get/delete, deterministic root hashing, and Merkle proof
// generation and verification (used by HarDTAPE during block sync,
// step 11 of the paper's workflow).
package mpt

import (
	"bytes"
	"errors"
	"fmt"

	"hardtape/internal/keccak"
	"hardtape/internal/rlp"
)

// Common errors.
var (
	ErrNotFound     = errors.New("mpt: key not found")
	ErrBadProof     = errors.New("mpt: invalid merkle proof")
	ErrCorruptTrie  = errors.New("mpt: corrupt trie node")
	ErrEmptyKey     = errors.New("mpt: empty key")
	ErrEmptyValue   = errors.New("mpt: empty value (use Delete)")
	ErrProofMissing = errors.New("mpt: proof node missing")
)

// EmptyRoot is the root hash of an empty trie:
// keccak256(rlp("")) = keccak256(0x80).
var EmptyRoot = [32]byte(keccak.Sum256([]byte{0x80}))

// node is the interface implemented by the four trie node types.
type node interface{ isNode() }

type (
	// leafNode terminates a path: key is the remaining nibble suffix.
	leafNode struct {
		key   []byte // nibbles
		value []byte
	}
	// extensionNode compresses a shared nibble run.
	extensionNode struct {
		key   []byte // nibbles
		child node
	}
	// branchNode fans out on one nibble; value holds a terminating
	// value when a key ends exactly here.
	branchNode struct {
		children [16]node
		value    []byte
	}
)

func (*leafNode) isNode()      {}
func (*extensionNode) isNode() {}
func (*branchNode) isNode()    {}

// Trie is an in-memory Merkle Patricia Trie. The zero value is an empty
// trie ready for use. Trie is not safe for concurrent mutation.
type Trie struct {
	root node
}

// New returns an empty trie.
func New() *Trie {
	return &Trie{}
}

// keyToNibbles converts a byte key into its nibble expansion.
func keyToNibbles(key []byte) []byte {
	nibbles := make([]byte, len(key)*2)
	for i, b := range key {
		nibbles[i*2] = b >> 4
		nibbles[i*2+1] = b & 0x0f
	}
	return nibbles
}

// hexPrefix encodes nibbles with the HP flag byte (odd length, leaf).
func hexPrefix(nibbles []byte, leaf bool) []byte {
	var flag byte
	if leaf {
		flag = 2
	}
	if len(nibbles)%2 == 1 {
		out := make([]byte, (len(nibbles)+1)/2)
		out[0] = (flag+1)<<4 | nibbles[0]
		for i := 1; i < len(nibbles); i += 2 {
			out[(i+1)/2] = nibbles[i]<<4 | nibbles[i+1]
		}
		return out
	}
	out := make([]byte, len(nibbles)/2+1)
	out[0] = flag << 4
	for i := 0; i < len(nibbles); i += 2 {
		out[i/2+1] = nibbles[i]<<4 | nibbles[i+1]
	}
	return out
}

// decodeHexPrefix reverses hexPrefix, returning nibbles and the leaf flag.
func decodeHexPrefix(b []byte) (nibbles []byte, leaf bool, err error) {
	if len(b) == 0 {
		return nil, false, ErrCorruptTrie
	}
	flag := b[0] >> 4
	if flag > 3 {
		return nil, false, ErrCorruptTrie
	}
	leaf = flag >= 2
	odd := flag&1 == 1
	if odd {
		nibbles = append(nibbles, b[0]&0x0f)
	}
	for _, c := range b[1:] {
		nibbles = append(nibbles, c>>4, c&0x0f)
	}
	return nibbles, leaf, nil
}

// Put inserts or updates key → value. Empty values are rejected
// (tries encode absence as deletion, matching Ethereum semantics).
func (t *Trie) Put(key, value []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(value) == 0 {
		return ErrEmptyValue
	}
	v := make([]byte, len(value))
	copy(v, value)
	t.root = insert(t.root, keyToNibbles(key), v)
	return nil
}

// Get retrieves the value for key, or ErrNotFound.
func (t *Trie) Get(key []byte) ([]byte, error) {
	if len(key) == 0 {
		return nil, ErrEmptyKey
	}
	v := lookup(t.root, keyToNibbles(key))
	if v == nil {
		return nil, ErrNotFound
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Delete removes key. Deleting a missing key returns ErrNotFound.
func (t *Trie) Delete(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	newRoot, deleted := remove(t.root, keyToNibbles(key))
	if !deleted {
		return ErrNotFound
	}
	t.root = newRoot
	return nil
}

// Hash returns the trie's Merkle root.
func (t *Trie) Hash() [32]byte {
	if t.root == nil {
		return EmptyRoot
	}
	enc := encodeNode(t.root)
	var h [32]byte
	keccak.Sum256Into(h[:], enc)
	return h
}

// insert adds value at nibble path key under n.
func insert(n node, key, value []byte) node {
	switch n := n.(type) {
	case nil:
		return &leafNode{key: key, value: value}

	case *leafNode:
		common := commonPrefix(n.key, key)
		if common == len(n.key) && common == len(key) {
			return &leafNode{key: key, value: value}
		}
		branch := &branchNode{}
		// Existing leaf's remainder.
		if common == len(n.key) {
			branch.value = n.value
		} else {
			branch.children[n.key[common]] = &leafNode{key: n.key[common+1:], value: n.value}
		}
		// New value's remainder.
		if common == len(key) {
			branch.value = value
		} else {
			branch.children[key[common]] = &leafNode{key: key[common+1:], value: value}
		}
		if common == 0 {
			return branch
		}
		return &extensionNode{key: key[:common], child: branch}

	case *extensionNode:
		common := commonPrefix(n.key, key)
		if common == len(n.key) {
			return &extensionNode{key: n.key, child: insert(n.child, key[common:], value)}
		}
		branch := &branchNode{}
		// Old extension's remainder.
		if common+1 == len(n.key) {
			branch.children[n.key[common]] = n.child
		} else {
			branch.children[n.key[common]] = &extensionNode{key: n.key[common+1:], child: n.child}
		}
		// New key's remainder.
		if common == len(key) {
			branch.value = value
		} else {
			branch.children[key[common]] = &leafNode{key: key[common+1:], value: value}
		}
		if common == 0 {
			return branch
		}
		return &extensionNode{key: key[:common], child: branch}

	case *branchNode:
		nb := n.clone()
		if len(key) == 0 {
			nb.value = value
			return nb
		}
		nb.children[key[0]] = insert(nb.children[key[0]], key[1:], value)
		return nb

	default:
		panic(fmt.Sprintf("mpt: unknown node type %T", n))
	}
}

func (b *branchNode) clone() *branchNode {
	nb := *b
	return &nb
}

// lookup returns the value at nibble path key, or nil.
func lookup(n node, key []byte) []byte {
	switch n := n.(type) {
	case nil:
		return nil
	case *leafNode:
		if bytes.Equal(n.key, key) {
			return n.value
		}
		return nil
	case *extensionNode:
		if len(key) < len(n.key) || !bytes.Equal(n.key, key[:len(n.key)]) {
			return nil
		}
		return lookup(n.child, key[len(n.key):])
	case *branchNode:
		if len(key) == 0 {
			return n.value
		}
		return lookup(n.children[key[0]], key[1:])
	default:
		return nil
	}
}

// remove deletes the value at nibble path key, returning the new
// subtree and whether a deletion happened.
func remove(n node, key []byte) (node, bool) {
	switch n := n.(type) {
	case nil:
		return nil, false

	case *leafNode:
		if bytes.Equal(n.key, key) {
			return nil, true
		}
		return n, false

	case *extensionNode:
		if len(key) < len(n.key) || !bytes.Equal(n.key, key[:len(n.key)]) {
			return n, false
		}
		child, deleted := remove(n.child, key[len(n.key):])
		if !deleted {
			return n, false
		}
		return collapseExtension(n.key, child), true

	case *branchNode:
		nb := n.clone()
		if len(key) == 0 {
			if nb.value == nil {
				return n, false
			}
			nb.value = nil
		} else {
			child, deleted := remove(nb.children[key[0]], key[1:])
			if !deleted {
				return n, false
			}
			nb.children[key[0]] = child
		}
		return collapseBranch(nb), true

	default:
		panic(fmt.Sprintf("mpt: unknown node type %T", n))
	}
}

// collapseExtension merges an extension with its (possibly reshaped)
// child after a delete.
func collapseExtension(prefix []byte, child node) node {
	switch c := child.(type) {
	case nil:
		return nil
	case *leafNode:
		return &leafNode{key: concatNibbles(prefix, c.key), value: c.value}
	case *extensionNode:
		return &extensionNode{key: concatNibbles(prefix, c.key), child: c.child}
	default:
		return &extensionNode{key: prefix, child: child}
	}
}

// collapseBranch simplifies a branch that may have dropped to one
// remaining child or value.
func collapseBranch(b *branchNode) node {
	liveIdx := -1
	liveCount := 0
	for i, c := range b.children {
		if c != nil {
			liveIdx = i
			liveCount++
		}
	}
	switch {
	case liveCount == 0 && b.value == nil:
		return nil
	case liveCount == 0:
		return &leafNode{key: nil, value: b.value}
	case liveCount == 1 && b.value == nil:
		return collapseExtension([]byte{byte(liveIdx)}, b.children[liveIdx])
	default:
		return b
	}
}

func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func concatNibbles(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// encodeNode RLP-encodes a node with embedded short children
// (< 32 bytes embed raw; otherwise a 32-byte hash reference).
func encodeNode(n node) []byte {
	return nodeItem(n).Encode()
}

// nodeRef returns the RLP item used to reference n from a parent.
func nodeRef(n node) *rlp.Item {
	if n == nil {
		return rlp.String(nil)
	}
	enc := encodeNode(n)
	if len(enc) < 32 {
		// Short nodes embed directly; re-decode to an item tree.
		it, err := rlp.Decode(enc)
		if err != nil {
			panic(fmt.Sprintf("mpt: re-decode of own encoding failed: %v", err))
		}
		return it
	}
	var h [32]byte
	keccak.Sum256Into(h[:], enc)
	return rlp.String(h[:])
}

// nodeItem returns the canonical RLP item for a node.
func nodeItem(n node) *rlp.Item {
	switch n := n.(type) {
	case *leafNode:
		return rlp.List(rlp.String(hexPrefix(n.key, true)), rlp.String(n.value))
	case *extensionNode:
		return rlp.List(rlp.String(hexPrefix(n.key, false)), nodeRef(n.child))
	case *branchNode:
		items := make([]*rlp.Item, 17)
		for i, c := range n.children {
			items[i] = nodeRef(c)
		}
		items[16] = rlp.String(n.value)
		return rlp.List(items...)
	default:
		panic(fmt.Sprintf("mpt: unknown node type %T", n))
	}
}
