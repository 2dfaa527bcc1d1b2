// Package asm is a small EVM assembler used to build the synthetic
// workload contracts and interpreter tests: ops, typed pushes, and
// two-pass label resolution for jumps.
package asm

import (
	"errors"
	"fmt"

	"hardtape/internal/evm"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// Assembler builds EVM bytecode. Use the fluent methods then call
// Assemble. The zero value is ready to use.
type Assembler struct {
	buf    []byte
	labels map[string]uint16
	// patches records PUSH2 immediates awaiting label resolution.
	patches []patch
	err     error
}

type patch struct {
	offset int
	label  string
}

// Errors returned by Assemble.
var (
	ErrUnknownLabel   = errors.New("asm: unknown label")
	ErrDuplicateLabel = errors.New("asm: duplicate label")
	ErrCodeTooLarge   = errors.New("asm: code exceeds 65535 bytes (label space)")
)

// New returns an empty assembler.
func New() *Assembler {
	return &Assembler{labels: make(map[string]uint16)}
}

// Op appends raw opcodes.
func (a *Assembler) Op(ops ...evm.OpCode) *Assembler {
	for _, op := range ops {
		a.buf = append(a.buf, byte(op))
	}
	return a
}

// Raw appends raw bytes verbatim.
func (a *Assembler) Raw(b ...byte) *Assembler {
	a.buf = append(a.buf, b...)
	return a
}

// Push appends the minimal PUSH for v.
func (a *Assembler) Push(v uint64) *Assembler {
	return a.PushInt(uint256.NewInt(v))
}

// PushInt appends the minimal PUSH for a 256-bit value (PUSH0 for 0).
func (a *Assembler) PushInt(v *uint256.Int) *Assembler {
	if v.IsZero() {
		return a.Op(evm.PUSH0)
	}
	b := v.Bytes()
	a.buf = append(a.buf, byte(evm.PUSH1)+byte(len(b)-1))
	a.buf = append(a.buf, b...)
	return a
}

// PushBytes appends a PUSH of up to 32 raw bytes.
func (a *Assembler) PushBytes(b []byte) *Assembler {
	if len(b) == 0 || len(b) > 32 {
		a.fail(fmt.Errorf("asm: PushBytes length %d out of range", len(b)))
		return a
	}
	a.buf = append(a.buf, byte(evm.PUSH1)+byte(len(b)-1))
	a.buf = append(a.buf, b...)
	return a
}

// PushAddr appends a PUSH20 of an address.
func (a *Assembler) PushAddr(addr types.Address) *Assembler {
	return a.PushBytes(addr[:])
}

// Label defines a jump target at the current position and emits a
// JUMPDEST.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		a.fail(fmt.Errorf("%w: %q", ErrDuplicateLabel, name))
		return a
	}
	if len(a.buf) > 0xffff {
		a.fail(ErrCodeTooLarge)
		return a
	}
	a.labels[name] = uint16(len(a.buf))
	return a.Op(evm.JUMPDEST)
}

// PushLabel emits a PUSH2 whose immediate is resolved to the label's
// offset at Assemble time.
func (a *Assembler) PushLabel(name string) *Assembler {
	a.buf = append(a.buf, byte(evm.PUSH1)+1, 0, 0)
	a.patches = append(a.patches, patch{offset: len(a.buf) - 2, label: name})
	return a
}

// Jump emits an unconditional jump to a label.
func (a *Assembler) Jump(name string) *Assembler {
	return a.PushLabel(name).Op(evm.JUMP)
}

// JumpI emits a conditional jump to a label (condition on stack).
func (a *Assembler) JumpI(name string) *Assembler {
	return a.PushLabel(name).Op(evm.JUMPI)
}

// SStore emits code storing a constant at a storage key.
func (a *Assembler) SStore(key, value uint64) *Assembler {
	return a.Push(value).Push(key).Op(evm.SSTORE)
}

// ReturnData emits code returning memory [offset, offset+size).
func (a *Assembler) ReturnData(offset, size uint64) *Assembler {
	return a.Push(size).Push(offset).Op(evm.RETURN)
}

// Stop emits STOP.
func (a *Assembler) Stop() *Assembler {
	return a.Op(evm.STOP)
}

func (a *Assembler) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// Assemble resolves labels and returns the bytecode.
func (a *Assembler) Assemble() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	if len(a.buf) > 0xffff+1 {
		return nil, ErrCodeTooLarge
	}
	out := make([]byte, len(a.buf))
	copy(out, a.buf)
	for _, p := range a.patches {
		target, ok := a.labels[p.label]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownLabel, p.label)
		}
		out[p.offset] = byte(target >> 8)
		out[p.offset+1] = byte(target)
	}
	return out, nil
}

// MustAssemble is Assemble, panicking on error (test/workload helper).
func (a *Assembler) MustAssemble() []byte {
	code, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return code
}

// DeployWrapper wraps runtime code in a standard constructor that
// returns it (CODECOPY + RETURN), yielding initcode for CREATE.
func DeployWrapper(runtime []byte) []byte {
	a := New()
	// PUSH len, PUSH srcOffset(label), PUSH 0, CODECOPY; PUSH len, PUSH 0, RETURN
	a.Push(uint64(len(runtime)))
	a.PushLabel("runtime")
	a.Push(0)
	a.Op(evm.CODECOPY)
	a.Push(uint64(len(runtime)))
	a.Push(0)
	a.Op(evm.RETURN)
	// Label must point at the runtime bytes, not a JUMPDEST: record
	// manually.
	a.labels["runtime"] = uint16(len(a.buf))
	a.Raw(runtime...)
	code, err := a.Assemble()
	if err != nil {
		panic(err) // unreachable: label always defined
	}
	return code
}
