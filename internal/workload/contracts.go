// Package workload synthesizes the evaluation set: hand-assembled EVM
// contracts and a seeded generator producing blocks whose per-frame
// memory sizes, storage-record counts, and call depths follow the
// paper's Table I (measured on Ethereum Mainnet blocks
// #19145194–#19145293). See DESIGN.md §1 for the substitution rationale.
package workload

import (
	"hardtape/internal/evm"
	"hardtape/internal/evm/asm"
	"hardtape/internal/types"
)

// ABI selectors (first 4 bytes of keccak of the canonical signature;
// values match the real Ethereum selectors for the ERC-20 functions).
const (
	SelTransfer  uint64 = 0xa9059cbb // transfer(address,uint256)
	SelBalanceOf uint64 = 0x70a08231 // balanceOf(address)
	SelMint      uint64 = 0x40c10f19 // mint(address,uint256)
	SelApprove   uint64 = 0x095ea7b3 // approve(address,uint256)
	SelAllowance uint64 = 0xdd62ed3e // allowance(address,address)
	SelSwap      uint64 = 0x000000a1 // swap(uint256) — synthetic
)

// ERC20Runtime assembles a token contract supporting transfer,
// balanceOf, approve, allowance and mint. Balances are keyed by the
// holder's address word; allowances by owner⊕(spender<<1) — simple
// keys that keep the contract assembly tractable while exercising the
// same SLOAD/SSTORE paths as a Solidity token.
func ERC20Runtime() []byte {
	a := asm.New()
	// Deterministic dispatch order (map iteration would vary codegen).
	a.Push(0).Op(evm.CALLDATALOAD).Push(224).Op(evm.SHR)
	a.Op(evm.DUP1).Push(SelTransfer).Op(evm.EQ).JumpI("transfer")
	a.Op(evm.DUP1).Push(SelBalanceOf).Op(evm.EQ).JumpI("balanceOf")
	a.Op(evm.DUP1).Push(SelMint).Op(evm.EQ).JumpI("mint")
	a.Op(evm.DUP1).Push(SelApprove).Op(evm.EQ).JumpI("approve")
	a.Op(evm.DUP1).Push(SelAllowance).Op(evm.EQ).JumpI("allowance")
	a.Push(0).Push(0).Op(evm.REVERT)

	// --- transfer(to, amount) ---
	a.Label("transfer").Op(evm.POP)
	a.Push(4).Op(evm.CALLDATALOAD)  // [to]
	a.Push(36).Op(evm.CALLDATALOAD) // [to, amount]
	a.Op(evm.CALLER).Op(evm.SLOAD)  // [to, amount, fromBal]
	// if fromBal < amount: revert
	a.Op(evm.DUP1 + 1) // DUP2 → [to, amount, fromBal, amount]
	a.Op(evm.DUP1 + 1) // DUP2 → [to, amount, fromBal, amount, fromBal]
	a.Op(evm.LT)       // fromBal < amount → [to, amount, fromBal, cond]
	a.JumpI("revert")
	// fromBal -= amount
	a.Op(evm.DUP1 + 1)              // [to, amount, fromBal, amount]
	a.Op(evm.DUP1 + 1)              // [to, amount, fromBal, amount, fromBal]
	a.Op(evm.SUB)                   // fromBal-amount → [to, amount, fromBal, newFrom]
	a.Op(evm.CALLER).Op(evm.SSTORE) // key=caller, val=newFrom → [to, amount, fromBal]
	a.Op(evm.POP)                   // [to, amount]
	// toBal += amount
	a.Op(evm.DUP1 + 1).Op(evm.SLOAD)  // [to, amount, toBal]
	a.Op(evm.ADD)                     // [to, newToBal]
	a.Op(evm.DUP1 + 1).Op(evm.SSTORE) // key=to → [to]
	a.Op(evm.POP)
	// Bookkeeping real tokens maintain (fee accumulator, transfer
	// counter, last sender) — gives token frames the 5-key footprint
	// Table I measures for DeFi transfers.
	a.Push(36).Op(evm.CALLDATALOAD).Push(0x10).Op(evm.SSTORE)
	a.Push(1).Push(0x11).Op(evm.SSTORE)
	a.Op(evm.CALLER).Push(0x12).Op(evm.SSTORE)
	// emit Transfer(caller, to) — LOG1 with the amount as data.
	a.Push(1).Push(0).Op(evm.MSTORE)
	a.Push(0xddf2) // synthetic Transfer topic
	a.Push(32).Push(0).Op(evm.LOG1)
	// return true
	a.Push(1).Push(0).Op(evm.MSTORE).ReturnData(0, 32)

	// --- balanceOf(addr) ---
	a.Label("balanceOf").Op(evm.POP)
	a.Push(4).Op(evm.CALLDATALOAD).Op(evm.SLOAD)
	a.Push(0).Op(evm.MSTORE).ReturnData(0, 32)

	// --- mint(to, amount) ---
	a.Label("mint").Op(evm.POP)
	a.Push(4).Op(evm.CALLDATALOAD)  // [to]
	a.Op(evm.DUP1).Op(evm.SLOAD)    // [to, bal]
	a.Push(36).Op(evm.CALLDATALOAD) // [to, bal, amount]
	a.Op(evm.ADD)                   // [to, newBal]
	a.Op(evm.SWAP1)                 // [newBal, to]
	a.Op(evm.SSTORE)                // key=to
	a.Stop()

	// --- approve(spender, amount): allowance key = caller ⊕ (spender<<1) ---
	a.Label("approve").Op(evm.POP)
	a.Push(36).Op(evm.CALLDATALOAD) // [amount]
	a.Push(4).Op(evm.CALLDATALOAD)  // [amount, spender]
	a.Push(1).Op(evm.SHL)           // spender<<1 (SHL pops shift then value? shift=top) → see note
	a.Op(evm.CALLER).Op(evm.XOR)    // [amount, key]
	a.Op(evm.SSTORE)                // key on top, value below
	a.Stop()

	// --- allowance(owner, spender) ---
	a.Label("allowance").Op(evm.POP)
	a.Push(36).Op(evm.CALLDATALOAD) // [spender]
	a.Push(1).Op(evm.SHL)
	a.Push(4).Op(evm.CALLDATALOAD) // [spender<<1, owner]
	a.Op(evm.XOR).Op(evm.SLOAD)
	a.Push(0).Op(evm.MSTORE).ReturnData(0, 32)

	// --- revert ---
	a.Label("revert")
	a.Push(0).Push(0).Op(evm.REVERT)

	return a.MustAssemble()
}

// DEXRuntime assembles a constant-product AMM: swap(amountIn) computes
// out = reserveOut·in/(reserveIn+in), updates the reserves in slots
// 0/1, and transfers `out` of the token whose address sits in slot 2 to
// the caller (a real cross-contract CALL, giving the paper's depth-2+
// frames).
func DEXRuntime() []byte {
	a := asm.New()
	a.Push(0).Op(evm.CALLDATALOAD).Push(224).Op(evm.SHR)
	a.Op(evm.DUP1).Push(SelSwap).Op(evm.EQ).JumpI("swap")
	a.Push(0).Push(0).Op(evm.REVERT)

	a.Label("swap").Op(evm.POP)
	a.Push(4).Op(evm.CALLDATALOAD) // [in]
	a.Push(0).Op(evm.SLOAD)        // [in, rIn]
	a.Push(1).Op(evm.SLOAD)        // [in, rIn, rOut]
	// denom = in + rIn
	a.Op(evm.DUP1 + 2) // DUP3: [in, rIn, rOut, in]
	a.Op(evm.DUP1 + 2) // DUP3: [in, rIn, rOut, in, rIn]
	a.Op(evm.ADD)      // [in, rIn, rOut, denom]
	// num = rOut * in
	a.Op(evm.DUP1 + 1) // [.., denom, rOut]
	a.Op(evm.DUP1 + 4) // DUP5 = in → [.., denom, rOut, in]
	a.Op(evm.MUL)      // [.., denom, num]
	a.Op(evm.DIV)      // num/denom → [in, rIn, rOut, out]
	// slot1 = rOut - out
	a.Op(evm.DUP1)     // [.., out, out]
	a.Op(evm.DUP1 + 2) // [.., out, out, rOut]
	a.Op(evm.SUB)      // rOut-out → [in, rIn, rOut, out, newROut]
	a.Push(1).Op(evm.SSTORE)
	// slot0 = rIn + in
	a.Op(evm.DUP1 + 3) // DUP4 = in → [in, rIn, rOut, out, in]
	a.Op(evm.DUP1 + 3) // DUP4 = rIn → [.., in, rIn]
	a.Op(evm.ADD)
	a.Push(0).Op(evm.SSTORE) // [in, rIn, rOut, out]
	// Bookkeeping slots real AMMs maintain (cumulative price
	// observation, k-last, fee accumulators): slots 3-6 ← out.
	for slot := uint64(3); slot <= 6; slot++ {
		a.Op(evm.DUP1).Push(slot).Op(evm.SSTORE)
	}
	// token.transfer(caller, out): build calldata at mem[0..68).
	a.Push(SelTransfer).Push(224).Op(evm.SHL).Push(0).Op(evm.MSTORE)
	a.Op(evm.CALLER).Push(4).Op(evm.MSTORE)
	a.Op(evm.DUP1).Push(36).Op(evm.MSTORE) // amount = out
	a.Push(0).Push(0)                      // outSize, outOff
	a.Push(68).Push(0)                     // inSize, inOff
	a.Push(0)                              // value
	a.Push(2).Op(evm.SLOAD)                // token address from slot 2
	a.Op(evm.GAS)
	a.Op(evm.CALL).Op(evm.POP)
	// return out
	a.Push(0).Op(evm.MSTORE) // [in, rIn, rOut] — out stored
	a.ReturnData(0, 32)

	return a.MustAssemble()
}

// DeepCallerRuntime assembles a contract that re-enters itself
// calldata[0] times, producing call chains of arbitrary depth
// (Table I's depth distribution).
func DeepCallerRuntime() []byte {
	a := asm.New()
	a.Push(0).Op(evm.CALLDATALOAD) // [n]
	a.Op(evm.DUP1).Op(evm.ISZERO).JumpI("done")
	// mem[0..32) = n-1
	a.Push(1).Op(evm.SWAP1).Op(evm.SUB) // [n-1]
	a.Push(0).Op(evm.MSTORE)
	a.Push(0).Push(0)  // outSize, outOff
	a.Push(32).Push(0) // inSize, inOff
	a.Push(0)          // value
	a.Op(evm.ADDRESS)  // self
	a.Op(evm.GAS)
	a.Op(evm.CALL).Op(evm.POP)
	a.Stop()
	a.Label("done")
	a.Stop()
	return a.MustAssemble()
}

// StorageHeavyRuntime assembles the roll-up-style contract: it writes
// calldata[0] consecutive storage slots (the workload that exercises
// the paper's 32-records-per-page grouping, and at large n the
// Memory Overflow discussion's heavy frames).
func StorageHeavyRuntime() []byte {
	a := asm.New()
	a.Push(0).Op(evm.CALLDATALOAD) // [i]
	a.Label("loop")
	a.Op(evm.DUP1).Op(evm.ISZERO).JumpI("end")
	// sstore(i, i+1)
	a.Op(evm.DUP1).Push(1).Op(evm.ADD) // [i, i+1]
	a.Op(evm.DUP1 + 1)                 // [i, i+1, i]
	a.Op(evm.SSTORE)                   // [i]
	a.Push(1).Op(evm.SWAP1).Op(evm.SUB)
	a.Jump("loop")
	a.Label("end")
	a.Stop()
	return a.MustAssemble()
}

// MemoryHogRuntime assembles a contract that expands Memory to
// calldata[0] bytes — the attack contract that must trip the HEVM's
// Memory Overflow Error (§V A2) instead of harming other sessions.
func MemoryHogRuntime() []byte {
	a := asm.New()
	a.Push(0xff)
	a.Push(0).Op(evm.CALLDATALOAD)
	a.Op(evm.MSTORE8)
	a.Stop()
	return a.MustAssemble()
}

// ArithmeticLoopRuntime assembles the Fig. 5 arithmetic benchmark: a
// counted loop of ALU work with no storage or call activity.
func ArithmeticLoopRuntime() []byte {
	a := asm.New()
	a.Push(0).Op(evm.CALLDATALOAD) // [i]
	a.Label("loop")
	a.Op(evm.DUP1).Op(evm.ISZERO).JumpI("end")
	// ALU noise: i*i, i+i, discard.
	a.Op(evm.DUP1).Op(evm.DUP1).Op(evm.MUL).Op(evm.POP)
	a.Op(evm.DUP1).Op(evm.DUP1).Op(evm.ADD).Op(evm.POP)
	a.Push(1).Op(evm.SWAP1).Op(evm.SUB)
	a.Jump("loop")
	a.Label("end")
	a.Stop()
	return a.MustAssemble()
}

// MemoryWorkerRuntime assembles a contract that touches Memory up to
// calldata[0] bytes and copies its input around — used to realize
// Table I's memory/input size distribution.
func MemoryWorkerRuntime() []byte {
	a := asm.New()
	// Copy all calldata into memory, then MSTORE8 at the target size.
	a.Op(evm.CALLDATASIZE).Push(0).Push(0).Op(evm.CALLDATACOPY)
	a.Push(0xaa)
	a.Push(0).Op(evm.CALLDATALOAD)
	a.Op(evm.MSTORE8)
	// Return the first 64 bytes.
	a.ReturnData(0, 64)
	return a.MustAssemble()
}

// PaddedRuntime appends JUMPDEST padding to reach a target code size
// without altering behaviour — used to realize Table I's code-size
// distribution (the padding is never executed).
func PaddedRuntime(runtime []byte, targetSize int) []byte {
	if len(runtime) >= targetSize {
		return runtime
	}
	out := make([]byte, targetSize)
	copy(out, runtime)
	for i := len(runtime); i < targetSize; i++ {
		out[i] = byte(evm.JUMPDEST)
	}
	return out
}

// CalldataTransfer builds the ABI calldata for transfer(to, amount).
func CalldataTransfer(to types.Address, amount uint64) []byte {
	return buildCall(SelTransfer, to.Word().Bytes32(), u64Word(amount))
}

// CalldataBalanceOf builds calldata for balanceOf(addr).
func CalldataBalanceOf(addr types.Address) []byte {
	return buildCall(SelBalanceOf, addr.Word().Bytes32())
}

// CalldataSwap builds calldata for swap(amountIn).
func CalldataSwap(amountIn uint64) []byte {
	return buildCall(SelSwap, u64Word(amountIn))
}

// CalldataUint builds a single-word calldata (deep-caller, loops).
func CalldataUint(v uint64) []byte {
	w := u64Word(v)
	return w[:]
}

func u64Word(v uint64) [32]byte {
	var w [32]byte
	for i := 0; i < 8; i++ {
		w[31-i] = byte(v >> (8 * i))
	}
	return w
}

func buildCall(selector uint64, words ...[32]byte) []byte {
	out := []byte{
		byte(selector >> 24), byte(selector >> 16),
		byte(selector >> 8), byte(selector),
	}
	for _, w := range words {
		out = append(out, w[:]...)
	}
	return out
}
