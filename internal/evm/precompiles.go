package evm

import (
	"crypto/sha256"

	"hardtape/internal/secp256k1"
	"hardtape/internal/types"
)

// precompiled is a native contract at a reserved address.
type precompiled interface {
	// requiredGas returns the gas cost for the given input.
	requiredGas(input []byte) uint64
	// run executes the precompile.
	run(input []byte) ([]byte, error)
}

// precompile resolves an address to its precompiled contract.
// Addresses 0x01 (ecrecover), 0x02 (sha256) and 0x04 (identity) are
// implemented; the remaining reserved addresses (0x03, 0x05–0x0a)
// return ErrUnsupportedPrecompile, a documented simplification — the
// synthetic workload never calls them.
func precompile(addr types.Address) (precompiled, bool) {
	var reserved bool
	for i := 0; i < 19; i++ {
		if addr[i] != 0 {
			return nil, false
		}
	}
	reserved = addr[19] >= 1 && addr[19] <= 10
	if !reserved {
		return nil, false
	}
	switch addr[19] {
	case 1:
		return ecrecoverPrecompile{}, true
	case 2:
		return sha256Precompile{}, true
	case 4:
		return identityPrecompile{}, true
	default:
		return unsupportedPrecompile{}, true
	}
}

// runPrecompile charges gas and executes.
func runPrecompile(p precompiled, input []byte, gas uint64) ([]byte, uint64, error) {
	cost := p.requiredGas(input)
	if cost > gas {
		return nil, 0, ErrOutOfGas
	}
	gas -= cost
	out, err := p.run(input)
	if err != nil {
		return nil, 0, err
	}
	return out, gas, nil
}

type ecrecoverPrecompile struct{}

func (ecrecoverPrecompile) requiredGas([]byte) uint64 { return 3000 }

func (ecrecoverPrecompile) run(input []byte) ([]byte, error) {
	// Input: hash(32) || v(32) || r(32) || s(32). Invalid inputs return
	// empty output, not an error (EVM convention).
	in := make([]byte, 128)
	copy(in, input)
	hash := in[:32]
	v := in[63] // low byte of the v word
	for _, b := range in[32:63] {
		if b != 0 {
			return nil, nil
		}
	}
	if v != 27 && v != 28 {
		return nil, nil
	}
	// High s is accepted here: EIP-2's low-s rule binds transaction
	// signatures only, not the ecrecover precompile.
	sig := secp256k1.Signature{V: v - 27}
	sig.R.SetBytes(in[64:96])
	sig.S.SetBytes(in[96:128])
	pub, err := secp256k1.Recover(hash, &sig)
	if err != nil {
		return nil, nil
	}
	addr := pub.Address()
	out := make([]byte, 32)
	copy(out[12:], addr[:])
	return out, nil
}

type sha256Precompile struct{}

func (sha256Precompile) requiredGas(input []byte) uint64 {
	return 60 + 12*wordCount(uint64(len(input)))
}

func (sha256Precompile) run(input []byte) ([]byte, error) {
	h := sha256.Sum256(input)
	return h[:], nil
}

type identityPrecompile struct{}

func (identityPrecompile) requiredGas(input []byte) uint64 {
	return 15 + 3*wordCount(uint64(len(input)))
}

func (identityPrecompile) run(input []byte) ([]byte, error) {
	out := make([]byte, len(input))
	copy(out, input)
	return out, nil
}

type unsupportedPrecompile struct{}

func (unsupportedPrecompile) requiredGas([]byte) uint64 { return 0 }

func (unsupportedPrecompile) run([]byte) ([]byte, error) {
	return nil, ErrUnsupportedPrecompile
}
