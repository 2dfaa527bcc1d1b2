package evm

import "errors"

// Execution errors. All of these consume the frame's remaining gas
// except ErrExecutionReverted, which refunds leftover gas to the caller.
var (
	ErrOutOfGas              = errors.New("evm: out of gas")
	ErrGasUintOverflow       = errors.New("evm: gas uint64 overflow")
	ErrStackUnderflow        = errors.New("evm: stack underflow")
	ErrStackOverflow         = errors.New("evm: stack overflow")
	ErrInvalidJump           = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode         = errors.New("evm: invalid opcode")
	ErrWriteProtection       = errors.New("evm: write protection (static call)")
	ErrReturnDataOOB         = errors.New("evm: return data out of bounds")
	ErrDepth                 = errors.New("evm: max call depth exceeded")
	ErrInsufficientBalance   = errors.New("evm: insufficient balance for transfer")
	ErrAddressCollision      = errors.New("evm: contract address collision")
	ErrMaxCodeSize           = errors.New("evm: max code size exceeded")
	ErrMaxInitCodeSize       = errors.New("evm: max initcode size exceeded")
	ErrExecutionReverted     = errors.New("evm: execution reverted")
	ErrNonceOverflow         = errors.New("evm: nonce overflow")
	ErrUnsupportedPrecompile = errors.New("evm: unsupported precompile")

	// Transaction-level validation errors.
	ErrIntrinsicGas      = errors.New("evm: intrinsic gas exceeds gas limit")
	ErrNonceMismatch     = errors.New("evm: nonce mismatch")
	ErrInsufficientFunds = errors.New("evm: insufficient funds for gas * price + value")
)

// HaltError is an unrecoverable exception raised below the interpreter
// — by a hook (a hardware abort: Memory Overflow, a forged L3 page) or
// by the world-state reader (a backend failure). It stops the whole
// transaction, not just the frame: ApplyTransaction returns it, and it
// unwraps to its cause.
type HaltError struct{ Err error }

func (h *HaltError) Error() string { return h.Err.Error() }
func (h *HaltError) Unwrap() error { return h.Err }

// Halt stops the running transaction with err. It may be called from a
// hook or a state.Reader method while ApplyTransaction runs; it
// unwinds to ApplyTransaction, the one place that recovers it.
func Halt(err error) { panic(&HaltError{Err: err}) }
