package evm

// OpClass buckets the instruction set into the coarse categories the
// telemetry layer samples (paper-eval question: where do pipeline
// cycles go — arithmetic, data movement, world state, or control?).
// Classes are deliberately few: counters are per-class, never per-PC
// or per-address, so exported samples carry no program identity.
type OpClass int

// Op classes.
const (
	OpClassArith   OpClass = iota // ADD..SIGNEXTEND, LT..SAR
	OpClassKeccak                 // KECCAK256
	OpClassEnv                    // ADDRESS..BLOBBASEFEE, PC, MSIZE, GAS
	OpClassMemory                 // MLOAD/MSTORE/MSTORE8/MCOPY, *COPY
	OpClassStorage                // SLOAD/SSTORE/TLOAD/TSTORE
	OpClassStack                  // POP, PUSH*, DUP*, SWAP*
	OpClassControl                // JUMP/JUMPI/JUMPDEST, STOP/RETURN/REVERT/INVALID
	OpClassCall                   // CALL family, CREATE family, SELFDESTRUCT
	OpClassLog                    // LOG0..LOG4
	OpClassOther                  // anything undefined

	NumOpClasses = int(OpClassOther) + 1
)

// String returns the export label for the class (constant strings —
// the telemetrysafe invariant for metric labels).
func (c OpClass) String() string {
	switch c {
	case OpClassArith:
		return "arith"
	case OpClassKeccak:
		return "keccak"
	case OpClassEnv:
		return "env"
	case OpClassMemory:
		return "memory"
	case OpClassStorage:
		return "storage"
	case OpClassStack:
		return "stack"
	case OpClassControl:
		return "control"
	case OpClassCall:
		return "call"
	case OpClassLog:
		return "log"
	default:
		return "other"
	}
}

// _opClassTable maps every opcode to its class once, at init.
var _opClassTable = buildOpClassTable()

func buildOpClassTable() [256]OpClass {
	var t [256]OpClass
	for i := range t {
		op := OpCode(i)
		switch {
		case op == STOP:
			t[i] = OpClassControl
		case op >= ADD && op <= SAR:
			t[i] = OpClassArith
		case op == KECCAK256:
			t[i] = OpClassKeccak
		case op >= ADDRESS && op <= 0x4a: // env + block context range
			switch op {
			case CALLDATACOPY, CODECOPY, EXTCODECOPY, RETURNDATACOPY:
				t[i] = OpClassMemory
			default:
				t[i] = OpClassEnv
			}
		case op == POP:
			t[i] = OpClassStack
		case op == MLOAD || op == MSTORE || op == MSTORE8 || op == MCOPY:
			t[i] = OpClassMemory
		case op == SLOAD || op == SSTORE || op == TLOAD || op == TSTORE:
			t[i] = OpClassStorage
		case op == JUMP || op == JUMPI || op == JUMPDEST:
			t[i] = OpClassControl
		case op == PC || op == MSIZE || op == GAS:
			t[i] = OpClassEnv
		case op >= PUSH0 && op <= SWAP16:
			t[i] = OpClassStack
		case op >= LOG0 && op <= LOG4:
			t[i] = OpClassLog
		case op == CREATE || op == CALL || op == CALLCODE || op == DELEGATECALL ||
			op == CREATE2 || op == STATICCALL || op == SELFDESTRUCT:
			t[i] = OpClassCall
		case op == RETURN || op == REVERT || op == INVALID:
			t[i] = OpClassControl
		default:
			t[i] = OpClassOther
		}
	}
	return t
}

// OpClassCounts accumulates executed-instruction counts per class.
// It is plain (non-atomic) memory: one instance belongs to one HEVM
// slot, counts a bundle, and is flushed into shared telemetry
// counters between bundles — the hot loop pays one array increment,
// no atomics.
type OpClassCounts [NumOpClasses]uint64

// Hooks returns an OnStep hook that counts classes into c. It rides
// the interpreter's hook-presence fast path: installed only when
// telemetry sampling is on, so the disabled cost is the existing
// hookStep flag check.
func (c *OpClassCounts) Hooks() *Hooks {
	return &Hooks{OnStep: func(si StepInfo) {
		c[_opClassTable[si.Op]]++
	}}
}

// Reset zeroes the counts (slot release).
func (c *OpClassCounts) Reset() { *c = OpClassCounts{} }
