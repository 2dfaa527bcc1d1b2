package evm

import (
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// CallKind distinguishes the frame-creating operations.
type CallKind int

// Call kinds.
const (
	CallKindCall CallKind = iota + 1
	CallKindCallCode
	CallKindDelegateCall
	CallKindStaticCall
	CallKindCreate
	CallKindCreate2
)

// String returns the mnemonic of the call kind.
func (k CallKind) String() string {
	switch k {
	case CallKindCall:
		return "CALL"
	case CallKindCallCode:
		return "CALLCODE"
	case CallKindDelegateCall:
		return "DELEGATECALL"
	case CallKindStaticCall:
		return "STATICCALL"
	case CallKindCreate:
		return "CREATE"
	case CallKindCreate2:
		return "CREATE2"
	default:
		return "CALL?"
	}
}

// WorldStateKind classifies world-state queries for the access-pattern
// observers (paper: K-V style queries vs Code queries).
type WorldStateKind int

// World-state query kinds.
const (
	WSBalance WorldStateKind = iota + 1
	WSNonce
	WSCode
	WSCodeHash
	WSCodeSize
	WSStorage
)

// StepInfo describes one executed instruction.
type StepInfo struct {
	Depth    int
	PC       uint64
	Op       OpCode
	Gas      uint64 // gas remaining before this step
	Cost     uint64 // total gas charged by this step
	StackLen int
	MemLen   int
	Address  types.Address
}

// CallFrameInfo describes a frame being entered.
type CallFrameInfo struct {
	Kind      CallKind
	Depth     int
	Caller    types.Address
	Address   types.Address // callee (or created address)
	CodeAddr  types.Address // where the running code lives
	Gas       uint64
	Value     *uint256.Int
	InputSize int
	CodeSize  int
}

// CallResultInfo describes a frame exit.
type CallResultInfo struct {
	Depth      int
	GasUsed    uint64
	ReturnSize int
	Err        error
	Reverted   bool
}

// WorldStateAccess describes one access crossing the world-state
// boundary (the accesses HarDTAPE must obliviously serve).
type WorldStateAccess struct {
	Kind  WorldStateKind
	Addr  types.Address
	Key   types.Hash // storage key when Kind == WSStorage
	Write bool
	Warm  bool // EIP-2929 warmth == "found in local cache"
}

// MemAccess describes a runtime Memory access (drives the hardware
// frame-size model).
type MemAccess struct {
	Offset uint64
	Size   uint64
	Write  bool
}

// Hooks receive interpreter events. Any field may be nil. Hook calls
// are synchronous; implementations must be fast.
type Hooks struct {
	OnStep       func(StepInfo)
	OnCallEnter  func(CallFrameInfo)
	OnCallExit   func(CallResultInfo)
	OnWorldState func(WorldStateAccess)
	OnMemAccess  func(MemAccess)
}

func (h *Hooks) step(info StepInfo) {
	if h != nil && h.OnStep != nil {
		h.OnStep(info)
	}
}

func (h *Hooks) callEnter(info CallFrameInfo) {
	if h != nil && h.OnCallEnter != nil {
		h.OnCallEnter(info)
	}
}

func (h *Hooks) callExit(info CallResultInfo) {
	if h != nil && h.OnCallExit != nil {
		h.OnCallExit(info)
	}
}

func (h *Hooks) worldState(a WorldStateAccess) {
	if h != nil && h.OnWorldState != nil {
		h.OnWorldState(a)
	}
}

func (h *Hooks) memAccess(a MemAccess) {
	if h != nil && h.OnMemAccess != nil {
		h.OnMemAccess(a)
	}
}

// CombineHooks fans events out to multiple consumers (e.g. the tracer
// and the hardware shadow) in order. Nil entries are skipped, and each
// handler is installed only when at least one consumer implements it,
// so the interpreter's hook-presence fast path stays effective through
// a combined hook set.
func CombineHooks(hooks ...*Hooks) *Hooks {
	var list []*Hooks
	var anyStep, anyEnter, anyExit, anyWS, anyMem bool
	for _, h := range hooks {
		if h == nil {
			continue
		}
		list = append(list, h)
		anyStep = anyStep || h.OnStep != nil
		anyEnter = anyEnter || h.OnCallEnter != nil
		anyExit = anyExit || h.OnCallExit != nil
		anyWS = anyWS || h.OnWorldState != nil
		anyMem = anyMem || h.OnMemAccess != nil
	}
	out := &Hooks{}
	if anyStep {
		out.OnStep = func(i StepInfo) {
			for _, h := range list {
				h.step(i)
			}
		}
	}
	if anyEnter {
		out.OnCallEnter = func(i CallFrameInfo) {
			for _, h := range list {
				h.callEnter(i)
			}
		}
	}
	if anyExit {
		out.OnCallExit = func(i CallResultInfo) {
			for _, h := range list {
				h.callExit(i)
			}
		}
	}
	if anyWS {
		out.OnWorldState = func(a WorldStateAccess) {
			for _, h := range list {
				h.worldState(a)
			}
		}
	}
	if anyMem {
		out.OnMemAccess = func(a MemAccess) {
			for _, h := range list {
				h.memAccess(a)
			}
		}
	}
	return out
}
