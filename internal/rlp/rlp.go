// Package rlp implements Ethereum's Recursive Length Prefix (RLP)
// serialization, used by the Merkle Patricia Trie, transactions, and
// block headers.
//
// RLP encodes two kinds of items: byte strings and lists of items. This
// package exposes one Item tree model: build items with String, Uint and
// List, serialize them with Encode, and parse with Decode.
package rlp

import (
	"errors"
	"fmt"
)

// Kind discriminates the two RLP item types.
type Kind int

// The two RLP item kinds.
const (
	KindString Kind = iota + 1
	KindList
)

// Item is a decoded RLP item: either a byte string or a list of items.
type Item struct {
	kind Kind
	str  []byte
	list []*Item
}

// Decoding errors.
var (
	ErrTruncated     = errors.New("rlp: input truncated")
	ErrTrailingBytes = errors.New("rlp: trailing bytes after item")
	ErrNonCanonical  = errors.New("rlp: non-canonical encoding")
	ErrNotString     = errors.New("rlp: item is not a string")
	ErrNotList       = errors.New("rlp: item is not a list")
	ErrTooDeep       = errors.New("rlp: lists nested too deep")
)

// maxDepth caps list nesting. The deepest lists the repo decodes are
// trie nodes with embedded children, a few levels; without a cap a
// hostile input recurses until the goroutine stack overflows, a fatal
// error that recover cannot catch.
const maxDepth = 1024

// String constructs a string item. The bytes are copied.
func String(b []byte) *Item {
	s := make([]byte, len(b))
	copy(s, b)
	return &Item{kind: KindString, str: s}
}

// Uint constructs a string item holding the minimal big-endian
// representation of v (empty string for zero), per RLP convention.
func Uint(v uint64) *Item {
	return &Item{kind: KindString, str: putUint(v)}
}

// List constructs a list item from the given children.
func List(children ...*Item) *Item {
	return &Item{kind: KindList, list: children}
}

// Kind returns the item's kind.
func (it *Item) Kind() Kind { return it.kind }

// Str returns the string payload. It returns ErrNotString for lists.
func (it *Item) Str() ([]byte, error) {
	if it.kind != KindString {
		return nil, ErrNotString
	}
	return it.str, nil
}

// Children returns the list elements. It returns ErrNotList for strings.
func (it *Item) Children() ([]*Item, error) {
	if it.kind != KindList {
		return nil, ErrNotList
	}
	return it.list, nil
}

// UintValue decodes the string payload as a big-endian unsigned integer.
func (it *Item) UintValue() (uint64, error) {
	b, err := it.Str()
	if err != nil {
		return 0, err
	}
	if len(b) > 8 {
		return 0, fmt.Errorf("rlp: integer too large (%d bytes)", len(b))
	}
	if len(b) > 0 && b[0] == 0 {
		return 0, ErrNonCanonical
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v, nil
}

// Encode serializes the item tree.
func (it *Item) Encode() []byte {
	return it.appendTo(nil)
}

func (it *Item) appendTo(out []byte) []byte {
	if it.kind == KindString {
		return appendString(out, it.str)
	}
	var payload []byte
	for _, child := range it.list {
		payload = child.appendTo(payload)
	}
	out = appendLength(out, 0xc0, len(payload))
	return append(out, payload...)
}

// putUint returns the minimal big-endian representation of v.
func putUint(v uint64) []byte {
	if v == 0 {
		return nil
	}
	var buf [8]byte
	n := 0
	for shift := 56; shift >= 0; shift -= 8 {
		c := byte(v >> uint(shift))
		if n == 0 && c == 0 {
			continue
		}
		buf[n] = c
		n++
	}
	return buf[:n]
}

// appendString appends the RLP encoding of a byte string.
func appendString(out, b []byte) []byte {
	if len(b) == 1 && b[0] < 0x80 {
		return append(out, b[0])
	}
	out = appendLength(out, 0x80, len(b))
	return append(out, b...)
}

// appendLength appends the RLP length prefix with the given base tag.
func appendLength(out []byte, base byte, length int) []byte {
	if length < 56 {
		return append(out, base+byte(length))
	}
	lenBytes := putUint(uint64(length))
	out = append(out, base+55+byte(len(lenBytes)))
	return append(out, lenBytes...)
}

// Decode parses a single RLP item and requires the input to be fully
// consumed.
func Decode(data []byte) (*Item, error) {
	it, rest, err := decodeItem(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrTrailingBytes
	}
	return it, nil
}

// decodeItem parses one item whose enclosing lists number depth.
func decodeItem(data []byte, depth int) (*Item, []byte, error) {
	if len(data) == 0 {
		return nil, nil, ErrTruncated
	}
	tag := data[0]
	switch {
	case tag < 0x80:
		return &Item{kind: KindString, str: []byte{tag}}, data[1:], nil

	case tag <= 0xb7: // short string
		length := int(tag - 0x80)
		if len(data) < 1+length {
			return nil, nil, ErrTruncated
		}
		str := data[1 : 1+length]
		if length == 1 && str[0] < 0x80 {
			return nil, nil, ErrNonCanonical
		}
		cp := make([]byte, length)
		copy(cp, str)
		return &Item{kind: KindString, str: cp}, data[1+length:], nil

	case tag <= 0xbf: // long string
		payload, rest, err := decodeLongLength(data, tag-0xb7)
		if err != nil {
			return nil, nil, err
		}
		if len(payload) < 56 {
			return nil, nil, ErrNonCanonical
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		return &Item{kind: KindString, str: cp}, rest, nil

	case depth == maxDepth: // any list from here on
		return nil, nil, ErrTooDeep

	case tag <= 0xf7: // short list
		length := int(tag - 0xc0)
		if len(data) < 1+length {
			return nil, nil, ErrTruncated
		}
		children, err := decodeListPayload(data[1:1+length], depth+1)
		if err != nil {
			return nil, nil, err
		}
		return &Item{kind: KindList, list: children}, data[1+length:], nil

	default: // long list
		payload, rest, err := decodeLongLength(data, tag-0xf7)
		if err != nil {
			return nil, nil, err
		}
		if len(payload) < 56 {
			return nil, nil, ErrNonCanonical
		}
		children, err := decodeListPayload(payload, depth+1)
		if err != nil {
			return nil, nil, err
		}
		return &Item{kind: KindList, list: children}, rest, nil
	}
}

// decodeLongLength reads an n-byte big-endian length then slices out the
// payload.
func decodeLongLength(data []byte, n byte) (payload, rest []byte, err error) {
	if len(data) < 1+int(n) {
		return nil, nil, ErrTruncated
	}
	lenBytes := data[1 : 1+n]
	if lenBytes[0] == 0 {
		return nil, nil, ErrNonCanonical
	}
	var length uint64 // n ≤ 8 (the tag ranges), so this cannot overflow
	for _, c := range lenBytes {
		length = length<<8 | uint64(c)
	}
	start := 1 + int(n)
	if uint64(len(data)-start) < length {
		return nil, nil, ErrTruncated
	}
	return data[start : start+int(length)], data[start+int(length):], nil
}

func decodeListPayload(payload []byte, depth int) ([]*Item, error) {
	var children []*Item
	for len(payload) > 0 {
		child, rest, err := decodeItem(payload, depth)
		if err != nil {
			return nil, err
		}
		children = append(children, child)
		payload = rest
	}
	return children, nil
}
