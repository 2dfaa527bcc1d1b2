package mpt

import (
	"bytes"

	"hardtape/internal/keccak"
	"hardtape/internal/rlp"
)

// Proof is an ordered list of RLP-encoded trie nodes from the root down
// to (and including) the node that proves presence or absence of a key.
type Proof struct {
	Nodes [][]byte
}

// Prove builds a Merkle proof for key. The proof verifies against the
// current root hash whether the key is present (yielding its value) or
// absent (yielding nil).
func (t *Trie) Prove(key []byte) (*Proof, error) {
	if len(key) == 0 {
		return nil, ErrEmptyKey
	}
	proof := &Proof{}
	n := t.root
	nibbles := keyToNibbles(key)
	for {
		if n == nil {
			return proof, nil
		}
		enc := encodeNode(n)
		// Only standalone (hashed) nodes go into the proof; embedded
		// short nodes travel inside their parent encoding. The root is
		// always included.
		if len(enc) >= 32 || len(proof.Nodes) == 0 {
			proof.Nodes = append(proof.Nodes, enc)
		}
		switch node := n.(type) {
		case *leafNode:
			return proof, nil
		case *extensionNode:
			if len(nibbles) < len(node.key) || !bytes.Equal(node.key, nibbles[:len(node.key)]) {
				return proof, nil
			}
			nibbles = nibbles[len(node.key):]
			n = node.child
		case *branchNode:
			if len(nibbles) == 0 {
				return proof, nil
			}
			next := node.children[nibbles[0]]
			nibbles = nibbles[1:]
			n = next
		}
	}
}

// VerifyProof checks proof against root for key. On success it returns
// the proven value (nil for a valid proof of absence).
func VerifyProof(root [32]byte, key []byte, proof *Proof) ([]byte, error) {
	if len(key) == 0 {
		return nil, ErrEmptyKey
	}
	if proof == nil || len(proof.Nodes) == 0 {
		if root == EmptyRoot {
			return nil, nil
		}
		return nil, ErrProofMissing
	}
	// Index nodes by hash.
	byHash := make(map[[32]byte][]byte, len(proof.Nodes))
	for _, enc := range proof.Nodes {
		var h [32]byte
		keccak.Sum256Into(h[:], enc)
		byHash[h] = enc
	}

	want := root
	nibbles := keyToNibbles(key)
	enc, ok := byHash[want]
	if !ok {
		return nil, ErrProofMissing
	}
	for {
		item, err := rlp.Decode(enc)
		if err != nil {
			return nil, ErrBadProof
		}
		value, nextRef, consumed, err := stepProof(item, nibbles)
		if err != nil {
			return nil, err
		}
		if nextRef == nil {
			return value, nil
		}
		nibbles = nibbles[consumed:]
		// nextRef is either an embedded node item or a 32-byte hash.
		if embedded, childErr := nextRef.Children(); childErr == nil {
			_ = embedded
			enc = nextRef.Encode()
			continue
		}
		hashBytes, err := nextRef.Str()
		if err != nil {
			return nil, ErrBadProof
		}
		if len(hashBytes) == 0 {
			// Path ends in an empty slot: proof of absence.
			return nil, nil
		}
		if len(hashBytes) != 32 {
			// Short embedded node encoded as a string is impossible in
			// canonical tries.
			return nil, ErrBadProof
		}
		copy(want[:], hashBytes)
		enc, ok = byHash[want]
		if !ok {
			return nil, ErrProofMissing
		}
	}
}

// stepProof interprets one decoded node against the remaining nibbles.
// It returns either a terminal value (nextRef == nil) or the reference
// to follow plus how many nibbles were consumed.
func stepProof(item *rlp.Item, nibbles []byte) (value []byte, nextRef *rlp.Item, consumed int, err error) {
	fields, err := item.Children()
	if err != nil {
		return nil, nil, 0, ErrBadProof
	}
	switch len(fields) {
	case 2: // leaf or extension
		hp, err := fields[0].Str()
		if err != nil {
			return nil, nil, 0, ErrBadProof
		}
		key, leaf, err := decodeHexPrefix(hp)
		if err != nil {
			return nil, nil, 0, ErrBadProof
		}
		if leaf {
			if bytes.Equal(key, nibbles) {
				v, err := fields[1].Str()
				if err != nil {
					return nil, nil, 0, ErrBadProof
				}
				return v, nil, 0, nil
			}
			return nil, nil, 0, nil // proven absent
		}
		if len(nibbles) < len(key) || !bytes.Equal(key, nibbles[:len(key)]) {
			return nil, nil, 0, nil // diverges: absent
		}
		return nil, fields[1], len(key), nil

	case 17: // branch
		if len(nibbles) == 0 {
			v, err := fields[16].Str()
			if err != nil {
				return nil, nil, 0, ErrBadProof
			}
			if len(v) == 0 {
				return nil, nil, 0, nil
			}
			return v, nil, 0, nil
		}
		return nil, fields[nibbles[0]], 1, nil

	default:
		return nil, nil, 0, ErrBadProof
	}
}

// SecureTrie wraps a Trie, hashing keys with keccak256 before use —
// the structure Ethereum uses for both the account trie and each
// account's storage trie. It also keeps the preimages so proofs can be
// requested by raw key.
type SecureTrie struct {
	trie Trie
}

// NewSecure returns an empty secure trie.
func NewSecure() *SecureTrie {
	return &SecureTrie{}
}

// Put inserts raw key → value (key is keccak-hashed internally).
func (s *SecureTrie) Put(key, value []byte) error {
	h := keccak.Sum256(key)
	return s.trie.Put(h[:], value)
}

// Get retrieves by raw key.
func (s *SecureTrie) Get(key []byte) ([]byte, error) {
	h := keccak.Sum256(key)
	return s.trie.Get(h[:])
}

// Delete removes by raw key.
func (s *SecureTrie) Delete(key []byte) error {
	h := keccak.Sum256(key)
	return s.trie.Delete(h[:])
}

// Hash returns the Merkle root.
func (s *SecureTrie) Hash() [32]byte {
	return s.trie.Hash()
}

// Prove builds a proof for the raw key.
func (s *SecureTrie) Prove(key []byte) (*Proof, error) {
	h := keccak.Sum256(key)
	return s.trie.Prove(h[:])
}

// VerifySecureProof verifies a SecureTrie proof for a raw key.
func VerifySecureProof(root [32]byte, key []byte, proof *Proof) ([]byte, error) {
	h := keccak.Sum256(key)
	return VerifyProof(root, h[:], proof)
}
