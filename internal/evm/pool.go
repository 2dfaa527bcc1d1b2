package evm

import (
	"sync"

	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// framePool recycles frames together with their stack and memory.
// Ownership discipline (mirroring PR 3's ORAM buffer pools): a frame is
// owned by exactly one call between newFrame and releaseFrame, and
// releaseFrame strips every reference to caller-owned data before the
// frame re-enters the pool, so nothing can leak between transactions —
// or between tenants on a shared device.
var framePool = sync.Pool{
	New: func() any {
		return &frame{stack: newStack(), mem: newMemory()}
	},
}

// newFrame acquires a pooled frame and initializes it for one
// execution. value is retained, not copied: the interpreter only ever
// reads it (CALLVALUE pushes a copy), and every caller keeps it alive
// for the duration of the call.
func newFrame(caller, address, codeAddr types.Address, code, input []byte, value *uint256.Int, gas uint64, analysis *CodeAnalysis) *frame {
	f := framePool.Get().(*frame)
	f.caller = caller
	f.address = address
	f.codeAddr = codeAddr
	f.code = code
	f.input = input
	f.value = value
	f.gas = gas
	f.analysis = analysis
	return f
}

// releaseFrame resets f and returns it to the pool. The caller must
// have copied out everything it needs (gas, return data) first: after
// release the frame may be reused by any other call on this process.
func releaseFrame(f *frame) {
	f.caller = types.Address{}
	f.address = types.Address{}
	f.codeAddr = types.Address{}
	f.code = nil
	f.input = nil
	f.value = nil
	f.gas = 0
	f.retData = nil
	f.analysis = nil
	f.stack.reset()
	f.mem.reset()
	framePool.Put(f)
}
