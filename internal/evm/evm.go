package evm

import (
	"errors"
	"fmt"

	"hardtape/internal/keccak"
	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// BlockContext supplies the block-level environment opcodes.
type BlockContext struct {
	Coinbase   types.Address
	Number     uint64
	Timestamp  uint64
	GasLimit   uint64
	BaseFee    *uint256.Int
	PrevRandao types.Hash
	ChainID    *uint256.Int
	// BlockHash resolves BLOCKHASH queries (may be nil → zero hash).
	BlockHash func(num uint64) types.Hash
}

// TxContext supplies the transaction-level environment opcodes.
type TxContext struct {
	Origin   types.Address
	GasPrice *uint256.Int
}

// EVM executes contract code against a state.Journal (an Overlay or a
// speculative TxOverlay). One EVM instance serves one transaction at a
// time (matching the paper's one-HEVM-per-bundle exclusivity).
type EVM struct {
	Block BlockContext
	Tx    TxContext
	State state.Journal
	Hooks *Hooks

	depth int
	// readOnly propagates STATICCALL write protection.
	readOnly bool

	// Hook-presence flags, recomputed at every depth-0 entry
	// (refreshHookFlags). When a flag is false the interpreter skips
	// the corresponding event assembly entirely — the zero-cost hook
	// fast path. Hooks must not be swapped mid-transaction.
	hookStep      bool
	hookCallEnter bool
	hookCallExit  bool
	hookWS        bool
	hookMem       bool
}

// refreshHookFlags recomputes the hook fast-path flags from e.Hooks.
// Called on every top-level entry so tests and services may install
// hooks any time between transactions.
func (e *EVM) refreshHookFlags() {
	h := e.Hooks
	e.hookStep = h != nil && h.OnStep != nil
	e.hookCallEnter = h != nil && h.OnCallEnter != nil
	e.hookCallExit = h != nil && h.OnCallExit != nil
	e.hookWS = h != nil && h.OnWorldState != nil
	e.hookMem = h != nil && h.OnMemAccess != nil
}

// New constructs an EVM. Nil BaseFee/ChainID default to zero values.
func New(block BlockContext, st state.Journal) *EVM {
	if block.BaseFee == nil {
		block.BaseFee = new(uint256.Int)
	}
	if block.ChainID == nil {
		block.ChainID = uint256.NewInt(1)
	}
	return &EVM{Block: block, State: st, Tx: TxContext{GasPrice: new(uint256.Int)}}
}

// frame is one execution frame (the paper's unit of call-stack
// management).
type frame struct {
	caller   types.Address
	address  types.Address // storage/balance context
	codeAddr types.Address // where code was loaded from
	code     []byte
	input    []byte
	value    *uint256.Int
	gas      uint64

	stack   *Stack
	mem     *Memory
	retData []byte // output of the most recent nested call
	// analysis is the shared static analysis of f.code; built lazily
	// (and left uncached) for CREATE initcode, which has no stable hash.
	analysis *CodeAnalysis
}

// useGas deducts gas, reporting false on exhaustion.
func (f *frame) useGas(amount uint64) bool {
	if f.gas < amount {
		return false
	}
	f.gas -= amount
	return true
}

// Dump implements FrameImage.
func (f *frame) Dump(off int, p []byte) {
	clear(p)
	f.image(off, p, false)
}

// Restore implements FrameImage.
func (f *frame) Restore(off int, p []byte) { f.image(off, p, true) }

// image copies between p and the image's bytes [off, off+len(p)): out
// of every region, or with restore into the stack and memory only.
func (f *frame) image(off int, p []byte, restore bool) {
	end := off + len(p)
	for i := off / 32; i < len(f.stack.data) && 32*i < end; i++ {
		w := f.stack.data[i].Bytes32()
		lo, hi := max(off, 32*i), min(end, 32*i+32)
		if !restore {
			copy(p[lo-off:hi-off], w[lo-32*i:])
			continue
		}
		copy(w[lo-32*i:], p[lo-off:hi-off])
		f.stack.data[i].SetBytes(w[:])
	}
	base := 32 * len(f.stack.data)
	for k, b := range [...][]byte{f.mem.data, f.input, f.retData, f.code} {
		if lo, hi := max(off, base), min(end, base+len(b)); lo < hi {
			if !restore {
				copy(p[lo-off:hi-off], b[lo-base:])
			} else if k == 0 {
				copy(b[lo-base:hi-base], p[lo-off:])
			}
		}
		base += len(b)
	}
}

// validJumpdest checks the destination is a JUMPDEST not inside a PUSH
// immediate.
func (f *frame) validJumpdest(dest *uint256.Int) bool {
	if !dest.IsUint64() {
		return false
	}
	pos := dest.Uint64()
	if pos >= uint64(len(f.code)) {
		return false
	}
	if OpCode(f.code[pos]) != JUMPDEST {
		return false
	}
	if f.analysis == nil {
		f.analysis = analyzeCode(f.code)
	}
	return f.analysis.ValidJumpdest(pos)
}

// canTransfer checks balance sufficiency.
func (e *EVM) canTransfer(from types.Address, amount *uint256.Int) bool {
	return !e.State.GetBalance(from).Lt(amount)
}

// transfer moves value between accounts.
func (e *EVM) transfer(from, to types.Address, amount *uint256.Int) {
	e.State.SubBalance(from, amount)
	e.State.AddBalance(to, amount)
}

// Call executes the code at addr with the given input as a message
// call. It returns the return data, the leftover gas, and an error
// (ErrExecutionReverted for REVERT).
func (e *EVM) Call(caller, addr types.Address, input []byte, gas uint64, value *uint256.Int) ([]byte, uint64, error) {
	return e.callInternal(CallKindCall, caller, addr, addr, input, gas, value, false)
}

// callInternal is the shared message-call path.
// storageCtx is the address whose storage/balance the code runs
// against; codeAddr is where the code is loaded from (they differ for
// CALLCODE/DELEGATECALL).
func (e *EVM) callInternal(kind CallKind, caller, storageCtx, codeAddr types.Address, input []byte, gas uint64, value *uint256.Int, forceReadOnly bool) ([]byte, uint64, error) {
	if e.depth == 0 {
		e.refreshHookFlags()
	}
	if e.depth > StackLimit {
		return nil, gas, ErrDepth
	}
	transfersValue := kind == CallKindCall && !value.IsZero()
	if (kind == CallKindCall || kind == CallKindCallCode) && !e.canTransfer(caller, value) {
		return nil, gas, ErrInsufficientBalance
	}

	snap := e.State.Snapshot()
	if transfersValue {
		e.transfer(caller, storageCtx, value)
	}

	// Precompile dispatch.
	if pc, ok := precompile(codeAddr); ok {
		if e.hookCallEnter {
			e.Hooks.callEnter(CallFrameInfo{
				Kind: kind, Depth: e.depth, Caller: caller, Address: storageCtx,
				CodeAddr: codeAddr, Gas: gas, Value: value.Clone(), InputSize: len(input),
			})
		}
		ret, left, err := runPrecompile(pc, input, gas)
		if err != nil && !errors.Is(err, ErrExecutionReverted) {
			e.State.RevertToSnapshot(snap)
		}
		if e.hookCallExit {
			e.Hooks.callExit(CallResultInfo{Depth: e.depth, GasUsed: gas - left, ReturnSize: len(ret), Err: err})
		}
		return ret, left, err
	}

	codeHash := e.State.GetCodeHash(codeAddr)
	code := e.State.GetCode(codeAddr)
	if e.hookWS {
		e.Hooks.worldState(WorldStateAccess{Kind: WSCode, Addr: codeAddr, Warm: true})
	}

	if len(code) == 0 {
		// Plain transfer or call to an EOA.
		if e.hookCallEnter {
			e.Hooks.callEnter(CallFrameInfo{
				Kind: kind, Depth: e.depth, Caller: caller, Address: storageCtx,
				CodeAddr: codeAddr, Gas: gas, Value: value.Clone(), InputSize: len(input),
			})
		}
		if e.hookCallExit {
			e.Hooks.callExit(CallResultInfo{Depth: e.depth, GasUsed: 0})
		}
		return nil, gas, nil
	}

	f := newFrame(caller, storageCtx, codeAddr, code, input, value, gas,
		sharedAnalysis.analyze(codeHash, code))
	if e.hookCallEnter {
		e.Hooks.callEnter(CallFrameInfo{
			Kind: kind, Depth: e.depth, Caller: caller, Address: storageCtx,
			CodeAddr: codeAddr, Gas: gas, Value: value.Clone(),
			InputSize: len(input), CodeSize: len(code), Frame: f,
		})
	}

	prevRO := e.readOnly
	if forceReadOnly {
		e.readOnly = true
	}
	e.depth++
	ret, err := e.run(f)
	e.depth--
	e.readOnly = prevRO

	leftGas := f.gas
	releaseFrame(f)

	if err != nil && !errors.Is(err, ErrExecutionReverted) {
		// Hard failure burns remaining gas and reverts state.
		e.State.RevertToSnapshot(snap)
		if e.hookCallExit {
			e.Hooks.callExit(CallResultInfo{Depth: e.depth, GasUsed: gas, Err: err})
		}
		return nil, 0, err
	}
	if errors.Is(err, ErrExecutionReverted) {
		e.State.RevertToSnapshot(snap)
	}
	if e.hookCallExit {
		e.Hooks.callExit(CallResultInfo{
			Depth: e.depth, GasUsed: gas - leftGas, ReturnSize: len(ret),
			Err: err, Reverted: errors.Is(err, ErrExecutionReverted),
		})
	}
	return ret, leftGas, err
}

// Create deploys a contract with CREATE address derivation.
func (e *EVM) Create(caller types.Address, initCode []byte, gas uint64, value *uint256.Int) ([]byte, types.Address, uint64, error) {
	nonce := e.State.GetNonce(caller)
	addr := types.CreateAddress(caller, nonce)
	return e.createAt(CallKindCreate, caller, addr, initCode, nil, gas, value)
}

// Create2 deploys a contract with the EIP-1014 salted address.
func (e *EVM) Create2(caller types.Address, initCode []byte, salt types.Hash, gas uint64, value *uint256.Int) ([]byte, types.Address, uint64, error) {
	var codeHash types.Hash
	keccak.Sum256Into(codeHash[:], initCode)
	addr := types.Create2Address(caller, salt, codeHash)
	return e.createAt(CallKindCreate2, caller, addr, initCode, &codeHash, gas, value)
}

// createAt is the shared deployment path. initCodeHash, when non-nil,
// is the already-computed keccak of initCode (CREATE2 pays for it as
// part of address derivation) and keys the shared analysis cache;
// CREATE initcode has no precomputed hash and is analyzed lazily per
// frame instead.
func (e *EVM) createAt(kind CallKind, caller, addr types.Address, initCode []byte, initCodeHash *types.Hash, gas uint64, value *uint256.Int) ([]byte, types.Address, uint64, error) {
	if e.depth == 0 {
		e.refreshHookFlags()
	}
	if e.depth > StackLimit {
		return nil, types.Address{}, gas, ErrDepth
	}
	if len(initCode) > MaxInitCodeSize {
		return nil, types.Address{}, gas, ErrMaxInitCodeSize
	}
	if !e.canTransfer(caller, value) {
		return nil, types.Address{}, gas, ErrInsufficientBalance
	}
	callerNonce := e.State.GetNonce(caller)
	if callerNonce+1 < callerNonce {
		return nil, types.Address{}, gas, ErrNonceOverflow
	}
	e.State.SetNonce(caller, callerNonce+1)

	// Collision check: an account with code or nonce blocks creation.
	if e.State.GetNonce(addr) != 0 ||
		(e.State.GetCodeHash(addr) != types.Hash{} && e.State.GetCodeHash(addr) != types.EmptyCodeHash) {
		return nil, types.Address{}, 0, ErrAddressCollision
	}

	snap := e.State.Snapshot()
	e.State.CreateAccount(addr)
	e.State.SetNonce(addr, 1)
	e.transfer(caller, addr, value)

	var analysis *CodeAnalysis
	if initCodeHash != nil {
		analysis = sharedAnalysis.analyze(*initCodeHash, initCode)
	}
	f := newFrame(caller, addr, addr, initCode, nil, value, gas, analysis)
	if e.hookCallEnter {
		e.Hooks.callEnter(CallFrameInfo{
			Kind: kind, Depth: e.depth, Caller: caller, Address: addr,
			CodeAddr: addr, Gas: gas, Value: value.Clone(),
			InputSize: 0, CodeSize: len(initCode), Frame: f,
		})
	}
	e.depth++
	ret, err := e.run(f)
	e.depth--

	if err == nil {
		// Deposit the returned code.
		switch {
		case len(ret) > MaxCodeSize:
			err = ErrMaxCodeSize
		case len(ret) > 0 && ret[0] == 0xef:
			// EIP-3541: reject EOF-prefixed code.
			err = ErrInvalidOpcode
		default:
			depositGas := uint64(len(ret)) * createDataGas
			if !f.useGas(depositGas) {
				err = ErrOutOfGas
			} else {
				e.State.SetCode(addr, ret)
			}
		}
	}

	leftGas := f.gas
	releaseFrame(f)

	if err != nil && !errors.Is(err, ErrExecutionReverted) {
		e.State.RevertToSnapshot(snap)
		if e.hookCallExit {
			e.Hooks.callExit(CallResultInfo{Depth: e.depth, GasUsed: gas, Err: err})
		}
		return nil, types.Address{}, 0, err
	}
	if errors.Is(err, ErrExecutionReverted) {
		e.State.RevertToSnapshot(snap)
		if e.hookCallExit {
			e.Hooks.callExit(CallResultInfo{Depth: e.depth, GasUsed: gas - leftGas, Err: err, Reverted: true})
		}
		return ret, types.Address{}, leftGas, err
	}
	if e.hookCallExit {
		e.Hooks.callExit(CallResultInfo{Depth: e.depth, GasUsed: gas - leftGas, ReturnSize: len(ret)})
	}
	return ret, addr, leftGas, nil
}

// ExecutionResult summarizes one applied transaction.
type ExecutionResult struct {
	GasUsed         uint64
	ReturnData      []byte
	Err             error // nil on success; ErrExecutionReverted on revert
	Logs            []*types.Log
	CreatedContract types.Address
}

// Reverted reports whether the transaction reverted.
func (r *ExecutionResult) Reverted() bool {
	return errors.Is(r.Err, ErrExecutionReverted)
}

// ApplyTransaction validates and executes tx against the overlay,
// charging gas to the sender and crediting the coinbase, exactly as a
// node (or pre-executor) would. Validation failures return an error
// and leave the state untouched; execution failures are reported
// inside the result. A Halt anywhere below returns its *HaltError, and
// the state is then mid-transaction and must be discarded. Any other
// panic is a bug and is not recovered.
func (e *EVM) ApplyTransaction(tx *types.Transaction) (_ *ExecutionResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			h, ok := r.(*HaltError)
			if !ok {
				panic(r)
			}
			err = h
		}
	}()
	sender, err := tx.Sender()
	if err != nil {
		return nil, fmt.Errorf("evm: apply: %w", err)
	}
	e.State.BeginTx()
	e.Tx = TxContext{Origin: sender, GasPrice: tx.GasPrice.Clone()}

	// Nonce check.
	if have := e.State.GetNonce(sender); have != tx.Nonce {
		return nil, fmt.Errorf("%w: have %d, tx %d", ErrNonceMismatch, have, tx.Nonce)
	}
	// Balance check: gasLimit*price + value.
	cost := new(uint256.Int).Mul(uint256.NewInt(tx.GasLimit), tx.GasPrice)
	cost.Add(cost, tx.Value)
	if e.State.GetBalance(sender).Lt(cost) {
		return nil, ErrInsufficientFunds
	}
	intrinsic, err := IntrinsicGas(tx.Data, tx.IsCreate())
	if err != nil {
		return nil, err
	}
	if intrinsic > tx.GasLimit {
		return nil, fmt.Errorf("%w: intrinsic %d > limit %d", ErrIntrinsicGas, intrinsic, tx.GasLimit)
	}

	// Buy gas.
	upfront := new(uint256.Int).Mul(uint256.NewInt(tx.GasLimit), tx.GasPrice)
	e.State.SubBalance(sender, upfront)
	// For calls, bump the nonce here; for creates, Create() bumps it
	// (and derives the contract address from the pre-bump value).
	if !tx.IsCreate() {
		e.State.SetNonce(sender, tx.Nonce+1)
	}

	// Warm the mandatory access-list entries (EIP-2929/3651).
	e.State.AddressWarm(sender)
	e.State.AddressWarm(e.Block.Coinbase)
	if tx.To != nil {
		e.State.AddressWarm(*tx.To)
	}

	gas := tx.GasLimit - intrinsic
	var (
		ret     []byte
		leftGas uint64
		vmErr   error
		created types.Address
	)
	logsBefore := len(e.State.Logs())
	if tx.IsCreate() {
		ret, created, leftGas, vmErr = e.Create(sender, tx.Data, gas, tx.Value)
	} else {
		ret, leftGas, vmErr = e.Call(sender, *tx.To, tx.Data, gas, tx.Value)
	}

	gasUsed := tx.GasLimit - leftGas
	// Apply refunds (capped).
	refund := e.State.GetRefund()
	if maxRefund := gasUsed / MaxRefundQuotient; refund > maxRefund {
		refund = maxRefund
	}
	gasUsed -= refund
	leftGas = tx.GasLimit - gasUsed

	// Return leftover gas and pay the coinbase.
	e.State.AddBalance(sender, new(uint256.Int).Mul(uint256.NewInt(leftGas), tx.GasPrice))
	e.State.AddBalance(e.Block.Coinbase, new(uint256.Int).Mul(uint256.NewInt(gasUsed), tx.GasPrice))

	e.State.FinaliseTx()

	return &ExecutionResult{
		GasUsed:         gasUsed,
		ReturnData:      ret,
		Err:             vmErr,
		Logs:            e.State.Logs()[logsBefore:],
		CreatedContract: created,
	}, nil
}
