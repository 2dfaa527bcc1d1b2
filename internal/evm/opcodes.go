// Package evm implements a Shanghai-era Ethereum Virtual Machine
// interpreter: the full instruction set, gas schedule, call/create
// semantics, and precompiles. It is the functional core shared by the
// software baseline executor ("Geth" in the paper's figures) and the
// hardware EVM model in internal/hevm, which shadows the interpreter's
// access events onto the paper's 3-layer memory hierarchy.
package evm

import "fmt"

// OpCode is an EVM opcode byte.
type OpCode byte

// Opcode definitions (Shanghai + EIP-1153 transient storage + MCOPY).
const (
	STOP       OpCode = 0x00
	ADD        OpCode = 0x01
	MUL        OpCode = 0x02
	SUB        OpCode = 0x03
	DIV        OpCode = 0x04
	SDIV       OpCode = 0x05
	MOD        OpCode = 0x06
	SMOD       OpCode = 0x07
	ADDMOD     OpCode = 0x08
	MULMOD     OpCode = 0x09
	EXP        OpCode = 0x0a
	SIGNEXTEND OpCode = 0x0b

	LT     OpCode = 0x10
	GT     OpCode = 0x11
	SLT    OpCode = 0x12
	SGT    OpCode = 0x13
	EQ     OpCode = 0x14
	ISZERO OpCode = 0x15
	AND    OpCode = 0x16
	OR     OpCode = 0x17
	XOR    OpCode = 0x18
	NOT    OpCode = 0x19
	BYTE   OpCode = 0x1a
	SHL    OpCode = 0x1b
	SHR    OpCode = 0x1c
	SAR    OpCode = 0x1d

	KECCAK256 OpCode = 0x20

	ADDRESS        OpCode = 0x30
	BALANCE        OpCode = 0x31
	ORIGIN         OpCode = 0x32
	CALLER         OpCode = 0x33
	CALLVALUE      OpCode = 0x34
	CALLDATALOAD   OpCode = 0x35
	CALLDATASIZE   OpCode = 0x36
	CALLDATACOPY   OpCode = 0x37
	CODESIZE       OpCode = 0x38
	CODECOPY       OpCode = 0x39
	GASPRICE       OpCode = 0x3a
	EXTCODESIZE    OpCode = 0x3b
	EXTCODECOPY    OpCode = 0x3c
	RETURNDATASIZE OpCode = 0x3d
	RETURNDATACOPY OpCode = 0x3e
	EXTCODEHASH    OpCode = 0x3f

	BLOCKHASH   OpCode = 0x40
	COINBASE    OpCode = 0x41
	TIMESTAMP   OpCode = 0x42
	NUMBER      OpCode = 0x43
	PREVRANDAO  OpCode = 0x44
	GASLIMIT    OpCode = 0x45
	CHAINID     OpCode = 0x46
	SELFBALANCE OpCode = 0x47
	BASEFEE     OpCode = 0x48

	POP      OpCode = 0x50
	MLOAD    OpCode = 0x51
	MSTORE   OpCode = 0x52
	MSTORE8  OpCode = 0x53
	SLOAD    OpCode = 0x54
	SSTORE   OpCode = 0x55
	JUMP     OpCode = 0x56
	JUMPI    OpCode = 0x57
	PC       OpCode = 0x58
	MSIZE    OpCode = 0x59
	GAS      OpCode = 0x5a
	JUMPDEST OpCode = 0x5b
	TLOAD    OpCode = 0x5c
	TSTORE   OpCode = 0x5d
	MCOPY    OpCode = 0x5e
	PUSH0    OpCode = 0x5f

	PUSH1  OpCode = 0x60
	PUSH32 OpCode = 0x7f
	DUP1   OpCode = 0x80
	DUP16  OpCode = 0x8f
	SWAP1  OpCode = 0x90
	SWAP16 OpCode = 0x9f

	LOG0 OpCode = 0xa0
	LOG1 OpCode = 0xa1
	LOG2 OpCode = 0xa2
	LOG3 OpCode = 0xa3
	LOG4 OpCode = 0xa4

	CREATE       OpCode = 0xf0
	CALL         OpCode = 0xf1
	CALLCODE     OpCode = 0xf2
	RETURN       OpCode = 0xf3
	DELEGATECALL OpCode = 0xf4
	CREATE2      OpCode = 0xf5
	STATICCALL   OpCode = 0xfa
	REVERT       OpCode = 0xfd
	INVALID      OpCode = 0xfe
	SELFDESTRUCT OpCode = 0xff
)

// IsPush reports whether op is PUSH1..PUSH32.
func (op OpCode) IsPush() bool {
	return op >= PUSH1 && op <= PUSH32
}

// PushSize returns the immediate size for PUSH ops (0 otherwise).
func (op OpCode) PushSize() int {
	if op.IsPush() {
		return int(op-PUSH1) + 1
	}
	return 0
}

// opInfo is the static metadata for one opcode.
type opInfo struct {
	name string
	// pops and pushes are the stack consumption/production counts.
	pops, pushes int
	// gas is the static gas cost (dynamic parts added separately).
	gas uint64
	// defined marks opcodes that exist in this fork.
	defined bool
}

// Gas cost tiers (yellow paper names).
const (
	gasZero    uint64 = 0
	gasBase    uint64 = 2
	gasVeryLow uint64 = 3
	gasLow     uint64 = 5
	gasMid     uint64 = 8
	gasHigh    uint64 = 10
	gasJumpDst uint64 = 1
)

// Dispatch classes for the interpreter's inline fast paths. Everything
// else routes through the execute switch.
const (
	classGeneric uint8 = iota
	classPush1
	classPush
	classDup
	classSwap
	classPop
	classJumpdest
)

// opHot is the compact per-opcode metadata the dispatch loop touches on
// every instruction: 8 bytes, so 8 opcodes share a cache line (opInfo
// drags a 16-byte name string through the cache instead).
//
// minStack/stackSpan encode both stack-bounds checks as one unsigned
// comparison: depth is valid iff
//
//	uint(len) - uint(minStack) <= uint(stackSpan)
//
// where minStack = pops and stackSpan = StackLimit - pushes (depth may
// be at most StackLimit + pops - pushes before the op runs). Undefined
// opcodes get the zero-value pops/pushes, so they pass for free and
// fall through to execute()'s ErrInvalidOpcode default.
type opHot struct {
	minStack  uint8
	class     uint8
	stackSpan uint16
	gas       uint32
}

// opTable is indexed by opcode byte.
var _opTable = buildOpTable()

// _opHotTable is derived from _opTable at init.
var _opHotTable = buildOpHotTable()

func buildOpHotTable() [256]opHot {
	var t [256]opHot
	for i := range t {
		info := &_opTable[i]
		op := OpCode(i)
		h := opHot{
			minStack:  uint8(info.pops),
			stackSpan: uint16(StackLimit - info.pushes),
			gas:       uint32(info.gas),
		}
		if info.defined {
			switch {
			case op == PUSH1:
				h.class = classPush1
			case op.IsPush():
				h.class = classPush
			case op >= DUP1 && op <= DUP16:
				h.class = classDup
			case op >= SWAP1 && op <= SWAP16:
				h.class = classSwap
			case op == POP:
				h.class = classPop
			case op == JUMPDEST:
				h.class = classJumpdest
			}
		}
		t[i] = h
	}
	return t
}

// stackBoundsErr classifies a failed combined bounds check.
func stackBoundsErr(op OpCode, depth int) error {
	if depth < _opTable[op].pops {
		return ErrStackUnderflow
	}
	return ErrStackOverflow
}

func buildOpTable() [256]opInfo {
	var t [256]opInfo
	def := func(op OpCode, name string, pops, pushes int, gas uint64) {
		t[op] = opInfo{name: name, pops: pops, pushes: pushes, gas: gas, defined: true}
	}
	def(STOP, "STOP", 0, 0, gasZero)
	def(ADD, "ADD", 2, 1, gasVeryLow)
	def(MUL, "MUL", 2, 1, gasLow)
	def(SUB, "SUB", 2, 1, gasVeryLow)
	def(DIV, "DIV", 2, 1, gasLow)
	def(SDIV, "SDIV", 2, 1, gasLow)
	def(MOD, "MOD", 2, 1, gasLow)
	def(SMOD, "SMOD", 2, 1, gasLow)
	def(ADDMOD, "ADDMOD", 3, 1, gasMid)
	def(MULMOD, "MULMOD", 3, 1, gasMid)
	def(EXP, "EXP", 2, 1, gasHigh) // + dynamic
	def(SIGNEXTEND, "SIGNEXTEND", 2, 1, gasLow)

	def(LT, "LT", 2, 1, gasVeryLow)
	def(GT, "GT", 2, 1, gasVeryLow)
	def(SLT, "SLT", 2, 1, gasVeryLow)
	def(SGT, "SGT", 2, 1, gasVeryLow)
	def(EQ, "EQ", 2, 1, gasVeryLow)
	def(ISZERO, "ISZERO", 1, 1, gasVeryLow)
	def(AND, "AND", 2, 1, gasVeryLow)
	def(OR, "OR", 2, 1, gasVeryLow)
	def(XOR, "XOR", 2, 1, gasVeryLow)
	def(NOT, "NOT", 1, 1, gasVeryLow)
	def(BYTE, "BYTE", 2, 1, gasVeryLow)
	def(SHL, "SHL", 2, 1, gasVeryLow)
	def(SHR, "SHR", 2, 1, gasVeryLow)
	def(SAR, "SAR", 2, 1, gasVeryLow)

	def(KECCAK256, "KECCAK256", 2, 1, 30) // + dynamic

	def(ADDRESS, "ADDRESS", 0, 1, gasBase)
	def(BALANCE, "BALANCE", 1, 1, 0) // dynamic (2929)
	def(ORIGIN, "ORIGIN", 0, 1, gasBase)
	def(CALLER, "CALLER", 0, 1, gasBase)
	def(CALLVALUE, "CALLVALUE", 0, 1, gasBase)
	def(CALLDATALOAD, "CALLDATALOAD", 1, 1, gasVeryLow)
	def(CALLDATASIZE, "CALLDATASIZE", 0, 1, gasBase)
	def(CALLDATACOPY, "CALLDATACOPY", 3, 0, gasVeryLow) // + copy
	def(CODESIZE, "CODESIZE", 0, 1, gasBase)
	def(CODECOPY, "CODECOPY", 3, 0, gasVeryLow) // + copy
	def(GASPRICE, "GASPRICE", 0, 1, gasBase)
	def(EXTCODESIZE, "EXTCODESIZE", 1, 1, 0) // dynamic (2929)
	def(EXTCODECOPY, "EXTCODECOPY", 4, 0, 0) // dynamic (2929 + copy)
	def(RETURNDATASIZE, "RETURNDATASIZE", 0, 1, gasBase)
	def(RETURNDATACOPY, "RETURNDATACOPY", 3, 0, gasVeryLow) // + copy
	def(EXTCODEHASH, "EXTCODEHASH", 1, 1, 0)                // dynamic (2929)

	def(BLOCKHASH, "BLOCKHASH", 1, 1, 20)
	def(COINBASE, "COINBASE", 0, 1, gasBase)
	def(TIMESTAMP, "TIMESTAMP", 0, 1, gasBase)
	def(NUMBER, "NUMBER", 0, 1, gasBase)
	def(PREVRANDAO, "PREVRANDAO", 0, 1, gasBase)
	def(GASLIMIT, "GASLIMIT", 0, 1, gasBase)
	def(CHAINID, "CHAINID", 0, 1, gasBase)
	def(SELFBALANCE, "SELFBALANCE", 0, 1, gasLow)
	def(BASEFEE, "BASEFEE", 0, 1, gasBase)

	def(POP, "POP", 1, 0, gasBase)
	def(MLOAD, "MLOAD", 1, 1, gasVeryLow)
	def(MSTORE, "MSTORE", 2, 0, gasVeryLow)
	def(MSTORE8, "MSTORE8", 2, 0, gasVeryLow)
	def(SLOAD, "SLOAD", 1, 1, 0)   // dynamic (2929)
	def(SSTORE, "SSTORE", 2, 0, 0) // dynamic (2200)
	def(JUMP, "JUMP", 1, 0, gasMid)
	def(JUMPI, "JUMPI", 2, 0, gasHigh)
	def(PC, "PC", 0, 1, gasBase)
	def(MSIZE, "MSIZE", 0, 1, gasBase)
	def(GAS, "GAS", 0, 1, gasBase)
	def(JUMPDEST, "JUMPDEST", 0, 0, gasJumpDst)
	def(TLOAD, "TLOAD", 1, 1, 100)
	def(TSTORE, "TSTORE", 2, 0, 100)
	def(MCOPY, "MCOPY", 3, 0, gasVeryLow) // + copy
	def(PUSH0, "PUSH0", 0, 1, gasBase)

	for i := 0; i < 32; i++ {
		def(PUSH1+OpCode(i), fmt.Sprintf("PUSH%d", i+1), 0, 1, gasVeryLow)
	}
	for i := 0; i < 16; i++ {
		def(DUP1+OpCode(i), fmt.Sprintf("DUP%d", i+1), i+1, i+2, gasVeryLow)
	}
	for i := 0; i < 16; i++ {
		def(SWAP1+OpCode(i), fmt.Sprintf("SWAP%d", i+1), i+2, i+2, gasVeryLow)
	}
	for i := 0; i <= 4; i++ {
		def(LOG0+OpCode(i), fmt.Sprintf("LOG%d", i), i+2, 0, 375) // + dynamic
	}

	def(CREATE, "CREATE", 3, 1, 32000)
	def(CALL, "CALL", 7, 1, 0)         // dynamic
	def(CALLCODE, "CALLCODE", 7, 1, 0) // dynamic
	def(RETURN, "RETURN", 2, 0, gasZero)
	def(DELEGATECALL, "DELEGATECALL", 6, 1, 0) // dynamic
	def(CREATE2, "CREATE2", 4, 1, 32000)
	def(STATICCALL, "STATICCALL", 6, 1, 0) // dynamic
	def(REVERT, "REVERT", 2, 0, gasZero)
	def(INVALID, "INVALID", 0, 0, gasZero)
	def(SELFDESTRUCT, "SELFDESTRUCT", 1, 0, 5000)
	return t
}

// String returns the mnemonic for op ("op(0xNN)" when undefined).
func (op OpCode) String() string {
	info := _opTable[op]
	if !info.defined {
		return fmt.Sprintf("op(0x%02x)", byte(op))
	}
	return info.name
}
