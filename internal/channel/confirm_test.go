package channel

import (
	"errors"
	"testing"
)

func TestConfirmTagRoundTrip(t *testing.T) {
	key := [32]byte{1, 2, 3}
	tag := ConfirmTag(key, 7, "user")
	if err := VerifyConfirmTag(key, 7, "user", tag[:]); err != nil {
		t.Fatalf("valid tag rejected: %v", err)
	}
}

func TestConfirmTagRejectsTampering(t *testing.T) {
	key := [32]byte{1, 2, 3}
	tag := ConfirmTag(key, 7, "user")

	cases := map[string]func() error{
		"flipped bit": func() error {
			bad := tag
			bad[0] ^= 0x80
			return VerifyConfirmTag(key, 7, "user", bad[:])
		},
		"wrong key": func() error {
			other := key
			other[31] ^= 1
			forged := ConfirmTag(other, 7, "user")
			return VerifyConfirmTag(key, 7, "user", forged[:])
		},
		"wrong session": func() error {
			forged := ConfirmTag(key, 8, "user")
			return VerifyConfirmTag(key, 7, "user", forged[:])
		},
		"reflected role": func() error {
			forged := ConfirmTag(key, 7, "device")
			return VerifyConfirmTag(key, 7, "user", forged[:])
		},
		"truncated": func() error {
			return VerifyConfirmTag(key, 7, "user", tag[:16])
		},
		"empty": func() error {
			return VerifyConfirmTag(key, 7, "user", nil)
		},
		"swapped bound value": func() error {
			forged := ConfirmTag(key, 7, "user", []byte("dev-key"), []byte("user-key"))
			return VerifyConfirmTag(key, 7, "user", forged[:], []byte("sp-key"), []byte("user-key"))
		},
		"shifted bound boundary": func() error {
			forged := ConfirmTag(key, 7, "user", []byte("ab"), []byte("c"))
			return VerifyConfirmTag(key, 7, "user", forged[:], []byte("a"), []byte("bc"))
		},
		"bound value dropped": func() error {
			return VerifyConfirmTag(key, 7, "user", tag[:], []byte{})
		},
	}
	for name, fn := range cases {
		if err := fn(); !errors.Is(err, ErrBadConfirmTag) {
			t.Errorf("%s: want ErrBadConfirmTag, got %v", name, err)
		}
	}
}
