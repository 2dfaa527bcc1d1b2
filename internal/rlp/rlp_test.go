package rlp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// Canonical test vectors from the Ethereum wiki.
func TestKnownVectors(t *testing.T) {
	tests := []struct {
		name string
		item *Item
		want []byte
	}{
		{"empty string", String(nil), []byte{0x80}},
		{"dog", String([]byte("dog")), []byte{0x83, 'd', 'o', 'g'}},
		{"single low byte", String([]byte{0x0f}), []byte{0x0f}},
		{"single high byte", String([]byte{0x80}), []byte{0x81, 0x80}},
		{"zero uint", Uint(0), []byte{0x80}},
		{"uint 15", Uint(15), []byte{0x0f}},
		{"uint 1024", Uint(1024), []byte{0x82, 0x04, 0x00}},
		{"empty list", List(), []byte{0xc0}},
		{
			"cat dog list",
			List(String([]byte("cat")), String([]byte("dog"))),
			[]byte{0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'},
		},
		{
			"set theoretic representation of three",
			List(List(), List(List()), List(List(), List(List()))),
			[]byte{0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.item.Encode()
			if !bytes.Equal(got, tt.want) {
				t.Fatalf("encode: got %x want %x", got, tt.want)
			}
			back, err := Decode(got)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(back.Encode(), tt.want) {
				t.Fatalf("re-encode mismatch: %x", back.Encode())
			}
		})
	}
}

func TestLongString(t *testing.T) {
	// "Lorem ipsum..." style: a 56-byte string needs a long-form header.
	s := bytes.Repeat([]byte{'a'}, 56)
	enc := String(s).Encode()
	if enc[0] != 0xb8 || enc[1] != 56 {
		t.Fatalf("long string header: %x", enc[:2])
	}
	it, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := it.MustStr(); !bytes.Equal(got, s) {
		t.Fatalf("round trip: %q", got)
	}
}

func TestLongList(t *testing.T) {
	var elems []*Item
	for i := 0; i < 30; i++ {
		elems = append(elems, String([]byte("ab")))
	}
	enc := List(elems...).Encode()
	it, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	children, err := it.Children()
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 30 {
		t.Fatalf("children = %d", len(children))
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated short string", []byte{0x83, 'd', 'o'}, ErrTruncated},
		{"truncated long string", []byte{0xb8, 0x40, 0x01}, ErrTruncated},
		{"truncated list", []byte{0xc8, 0x83}, ErrTruncated},
		{"trailing bytes", []byte{0x01, 0x02}, ErrTrailingBytes},
		{"non-canonical single byte", []byte{0x81, 0x05}, ErrNonCanonical},
		{"non-canonical long string", append([]byte{0xb8, 0x01}, 0xff), ErrNonCanonical},
		{"non-canonical length leading zero", []byte{0xb9, 0x00, 0x01}, ErrNonCanonical},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.in); !errors.Is(err, tt.want) {
				t.Fatalf("Decode(%x): got %v, want %v", tt.in, err, tt.want)
			}
		})
	}
}

// TestDecodeNestingDepth: maxDepth nested lists decode and one more is
// ErrTooDeep.
func TestDecodeNestingDepth(t *testing.T) {
	nested := func(levels int) []byte {
		it := List()
		for i := 1; i < levels; i++ {
			it = List(it)
		}
		return it.Encode()
	}
	if _, err := Decode(nested(maxDepth)); err != nil {
		t.Fatalf("%d nested lists: %v", maxDepth, err)
	}
	if _, err := Decode(nested(maxDepth + 1)); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("%d nested lists: got %v, want ErrTooDeep", maxDepth+1, err)
	}
}

// TestDecodeDeepInputIsAnError: a 12 MB input of three million nested
// long lists is ErrTooDeep. Uncapped, the decoder recursed until the
// goroutine stack overflowed, a fatal error that killed the process.
func TestDecodeDeepInputIsAnError(t *testing.T) {
	// Each level is a long-list header with a 3-byte length (0xfa);
	// the innermost item is a 56-byte long string.
	const levels, inner = 3_000_000, 58
	in := make([]byte, 4*levels+inner)
	for k := 0; k < levels; k++ {
		n := len(in) - 4*k - 4
		in[4*k], in[4*k+1], in[4*k+2], in[4*k+3] = 0xfa, byte(n>>16), byte(n>>8), byte(n)
	}
	in[4*levels], in[4*levels+1] = 0xb8, inner-2
	if _, err := Decode(in); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("%d-byte input of %d nested lists: got %v, want ErrTooDeep", len(in), levels, err)
	}
}

func TestKindAccessors(t *testing.T) {
	s := String([]byte("x"))
	l := List(s)
	if s.Kind() != KindString || l.Kind() != KindList {
		t.Fatal("Kind accessors wrong")
	}
	if _, err := s.Children(); !errors.Is(err, ErrNotList) {
		t.Error("Children on string should fail")
	}
	if _, err := l.Str(); !errors.Is(err, ErrNotString) {
		t.Error("Str on list should fail")
	}
}

func TestUintValue(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 1 << 32, 1<<63 + 5} {
		it, err := Decode(Uint(v).Encode())
		if err != nil {
			t.Fatalf("decode uint %d: %v", v, err)
		}
		got, err := it.UintValue()
		if err != nil {
			t.Fatalf("UintValue(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("UintValue = %d, want %d", got, v)
		}
	}
	// Leading zero is non-canonical for integers.
	it := String([]byte{0x00, 0x01})
	if _, err := it.UintValue(); !errors.Is(err, ErrNonCanonical) {
		t.Error("leading-zero integer should be non-canonical")
	}
	// Too large.
	it = String(bytes.Repeat([]byte{0xff}, 9))
	if _, err := it.UintValue(); err == nil {
		t.Error("9-byte integer should fail")
	}
}

// TestDecodePrefix: one item parses off the front of its input and
// leaves the rest, as list decoding relies on.
func TestDecodePrefix(t *testing.T) {
	data := append(String([]byte("hello")).Encode(), 0xde, 0xad)
	it, rest, err := decodeItem(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(it.MustStr(), []byte("hello")) {
		t.Fatalf("prefix item: %q", it.MustStr())
	}
	if !bytes.Equal(rest, []byte{0xde, 0xad}) {
		t.Fatalf("rest: %x", rest)
	}
}

func TestStringCopies(t *testing.T) {
	src := []byte("mutable")
	it := String(src)
	src[0] = 'X'
	if it.MustStr()[0] == 'X' {
		t.Error("String must copy its input")
	}
}

// Property: encode→decode→encode is the identity on arbitrary byte
// strings and on lists built from them.
func TestQuickRoundTrip(t *testing.T) {
	f := func(chunks [][]byte) bool {
		items := make([]*Item, len(chunks))
		for i, c := range chunks {
			items[i] = String(c)
		}
		root := List(items...)
		enc := root.Encode()
		back, err := Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(back.Encode(), enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics, and any successful
// decode re-encodes to exactly the consumed input (canonicality).
func TestQuickDecodeTotal(t *testing.T) {
	f := func(data []byte) bool {
		it, err := Decode(data)
		if err != nil {
			return true
		}
		return bytes.Equal(it.Encode(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
