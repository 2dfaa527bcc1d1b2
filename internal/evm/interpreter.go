package evm

import (
	"errors"

	"hardtape/internal/keccak"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

// run executes the frame's code to completion, returning the output of
// RETURN/REVERT (with ErrExecutionReverted in the latter case).
func (e *EVM) run(f *frame) ([]byte, error) {
	// Stack depth and remaining gas are mirrored in loop locals (kept
	// in registers) so the fast-path opcodes never touch f.gas or the
	// stack header; both are written back before anything that can
	// observe them (execute, the step hook, every return) and reloaded
	// after execute, which mutates them arbitrarily.
	var (
		pc       uint64
		code     = f.code
		codeLen  = uint64(len(code))
		stack    = f.stack
		hookStep = e.hookStep
		ln       = stack.Len()
		gas      = f.gas
	)
	for {
		if pc >= codeLen {
			// Implicit STOP falling off the end of code.
			f.gas = gas
			return nil, nil
		}
		op := OpCode(code[pc])
		hot := &_opHotTable[op]
		// Combined stack bounds check (see opHot). Undefined opcodes
		// pass with zero-value bounds and fall through to execute(),
		// whose default case returns ErrInvalidOpcode.
		if uint(ln)-uint(hot.minStack) > uint(hot.stackSpan) {
			f.gas = gas
			return nil, stackBoundsErr(op, ln)
		}
		var gasBefore uint64
		if hookStep {
			gasBefore = gas
		}
		if g := uint64(hot.gas); gas < g {
			f.gas = gas
			return nil, ErrOutOfGas
		} else {
			gas -= g
		}

		// Dense dispatch on the precomputed class: the frequent
		// stack-shuffling opcodes stay inline and jump straight back
		// to the loop head, skipping the generic ret/done/err
		// plumbing; everything else routes through the execute switch.
		switch hot.class {
		case classPush1:
			// PUSH1 is by far the most frequent opcode; skip the
			// general immediate decoding.
			var v uint64
			if pc+1 < codeLen {
				v = uint64(code[pc+1])
			}
			stack.pushUint64(v)
			ln++
			if hookStep {
				f.gas = gas
				e.stepEvent(f, pc, op, gasBefore)
			}
			pc += 2
			continue

		case classPush:
			n := uint64(op.PushSize())
			end := pc + 1 + n
			if end > codeLen {
				end = codeLen
			}
			v := stack.pushSlot()
			v.SetBytes(code[pc+1 : end])
			// Right-pad implicit zeros when code is truncated.
			if missing := pc + 1 + n - end; missing > 0 {
				v.Lsh(v, uint(missing*8))
			}
			ln++
			if hookStep {
				f.gas = gas
				e.stepEvent(f, pc, op, gasBefore)
			}
			pc += 1 + n
			continue

		case classDup:
			stack.dup(int(op-DUP1) + 1)
			ln++
			if hookStep {
				f.gas = gas
				e.stepEvent(f, pc, op, gasBefore)
			}
			pc++
			continue

		case classSwap:
			stack.swap(int(op-SWAP1) + 1)
			if hookStep {
				f.gas = gas
				e.stepEvent(f, pc, op, gasBefore)
			}
			pc++
			continue

		case classPop:
			stack.drop()
			ln--
			if hookStep {
				f.gas = gas
				e.stepEvent(f, pc, op, gasBefore)
			}
			pc++
			continue

		case classJumpdest:
			if hookStep {
				f.gas = gas
				e.stepEvent(f, pc, op, gasBefore)
			}
			pc++
			continue
		}

		f.gas = gas
		ret, nextPC, done, err := e.execute(f, op, pc)
		gas = f.gas
		ln = stack.Len()
		if err != nil {
			return nil, err
		}
		if hookStep {
			e.stepEvent(f, pc, op, gasBefore)
		}
		if done {
			if op == REVERT {
				return ret, ErrExecutionReverted
			}
			return ret, nil
		}
		pc = nextPC
	}
}

// stepEvent assembles and emits the StepInfo for one instruction. Only
// called when an OnStep observer is installed (e.hookStep), keeping the
// assembly cost out of the unobserved hot loop.
func (e *EVM) stepEvent(f *frame, pc uint64, op OpCode, gasBefore uint64) {
	e.Hooks.step(StepInfo{
		Depth:    e.depth,
		PC:       pc,
		Op:       op,
		Gas:      gasBefore,
		Cost:     gasBefore - f.gas,
		StackLen: f.stack.Len(),
		MemLen:   f.mem.Len(),
		Address:  f.address,
	})
}

// memSpan pops nothing; it validates an (offset, size) pair already
// popped from the stack, charges memory expansion, resizes, and
// returns the concrete bounds.
func (e *EVM) memSpan(f *frame, offset, size *uint256.Int) (uint64, uint64, error) {
	if size.IsZero() {
		return 0, 0, nil
	}
	off, overflow := offset.Uint64WithOverflow()
	if overflow {
		return 0, 0, ErrGasUintOverflow
	}
	sz, overflow := size.Uint64WithOverflow()
	if overflow {
		return 0, 0, ErrGasUintOverflow
	}
	if err := e.chargeMemory(f, off, sz); err != nil {
		return 0, 0, err
	}
	return off, sz, nil
}

// chargeMemory charges expansion gas up to offset+size and resizes.
func (e *EVM) chargeMemory(f *frame, offset, size uint64) error {
	if size == 0 {
		return nil
	}
	end := offset + size
	if end < offset {
		return ErrGasUintOverflow
	}
	if end <= uint64(f.mem.Len()) {
		return nil
	}
	oldCost, err := memoryGasCost(uint64(f.mem.Len()))
	if err != nil {
		return err
	}
	newCost, err := memoryGasCost(end)
	if err != nil {
		return err
	}
	if !f.useGas(newCost - oldCost) {
		return ErrOutOfGas
	}
	f.mem.resize(end)
	return nil
}

// chargeCopy charges the per-word copy cost.
func (f *frame) chargeCopy(size uint64) error {
	if !f.useGas(wordCount(size) * copyGasPerWord) {
		return ErrOutOfGas
	}
	return nil
}

// getData extracts [offset, offset+size) from data with zero padding.
func getData(data []byte, offset, size uint64) []byte {
	length := uint64(len(data))
	if offset > length {
		offset = length
	}
	end := offset + size
	if end < offset || end > length {
		end = length
	}
	out := make([]byte, size)
	copy(out, data[offset:end])
	return out
}

// execute handles every opcode run does not dispatch inline (PUSH,
// DUP, SWAP, POP, JUMPDEST). It returns the frame's output when done
// is true.
func (e *EVM) execute(f *frame, op OpCode, pc uint64) (ret []byte, nextPC uint64, done bool, err error) {
	nextPC = pc + 1
	stack := f.stack
	switch op {
	case STOP:
		return nil, nextPC, true, nil

	// --- Arithmetic ---
	case ADD:
		x := stack.pop()
		y := stack.peek(0)
		y.Add(&x, y)
	case MUL:
		x := stack.pop()
		y := stack.peek(0)
		y.Mul(&x, y)
	case SUB:
		x := stack.pop()
		y := stack.peek(0)
		y.Sub(&x, y)
	case DIV:
		x := stack.pop()
		y := stack.peek(0)
		y.Div(&x, y)
	case SDIV:
		x := stack.pop()
		y := stack.peek(0)
		y.SDiv(&x, y)
	case MOD:
		x := stack.pop()
		y := stack.peek(0)
		y.Mod(&x, y)
	case SMOD:
		x := stack.pop()
		y := stack.peek(0)
		y.SMod(&x, y)
	case ADDMOD:
		x := stack.pop()
		y := stack.pop()
		m := stack.peek(0)
		m.AddMod(&x, &y, m)
	case MULMOD:
		x := stack.pop()
		y := stack.pop()
		m := stack.peek(0)
		m.MulMod(&x, &y, m)
	case EXP:
		base := stack.pop()
		exp := stack.peek(0)
		if !f.useGas(expByteGas * uint64(exp.ByteLen())) {
			return nil, 0, false, ErrOutOfGas
		}
		exp.Exp(&base, exp)
	case SIGNEXTEND:
		back := stack.pop()
		x := stack.peek(0)
		x.SignExtend(&back, x)

	// --- Comparison / bitwise ---
	case LT:
		x := stack.pop()
		y := stack.peek(0)
		setBool(y, x.Lt(y))
	case GT:
		x := stack.pop()
		y := stack.peek(0)
		setBool(y, x.Gt(y))
	case SLT:
		x := stack.pop()
		y := stack.peek(0)
		setBool(y, x.Slt(y))
	case SGT:
		x := stack.pop()
		y := stack.peek(0)
		setBool(y, x.Sgt(y))
	case EQ:
		x := stack.pop()
		y := stack.peek(0)
		setBool(y, x.Eq(y))
	case ISZERO:
		x := stack.peek(0)
		setBool(x, x.IsZero())
	case AND:
		x := stack.pop()
		y := stack.peek(0)
		y.And(&x, y)
	case OR:
		x := stack.pop()
		y := stack.peek(0)
		y.Or(&x, y)
	case XOR:
		x := stack.pop()
		y := stack.peek(0)
		y.Xor(&x, y)
	case NOT:
		x := stack.peek(0)
		x.Not(x)
	case BYTE:
		n := stack.pop()
		x := stack.peek(0)
		x.Byte(&n, x)
	case SHL:
		shift := stack.pop()
		x := stack.peek(0)
		if shift.IsUint64() && shift.Uint64() < 256 {
			x.Lsh(x, uint(shift.Uint64()))
		} else {
			x.Clear()
		}
	case SHR:
		shift := stack.pop()
		x := stack.peek(0)
		if shift.IsUint64() && shift.Uint64() < 256 {
			x.Rsh(x, uint(shift.Uint64()))
		} else {
			x.Clear()
		}
	case SAR:
		shift := stack.pop()
		x := stack.peek(0)
		if shift.IsUint64() && shift.Uint64() < 256 {
			x.SRsh(x, uint(shift.Uint64()))
		} else if x.Sign() < 0 {
			x.Not(new(uint256.Int)) // all ones
		} else {
			x.Clear()
		}

	// --- KECCAK256 ---
	case KECCAK256:
		offset := stack.pop()
		size := stack.peek(0)
		off, sz, err := e.memSpan(f, &offset, size)
		if err != nil {
			return nil, 0, false, err
		}
		if !f.useGas(keccakGasPerWord * wordCount(sz)) {
			return nil, 0, false, ErrOutOfGas
		}
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: off, Size: sz})
		}
		var h [keccak.Size]byte
		keccak.Sum256Into(h[:], f.mem.view(off, sz))
		size.SetBytes(h[:])

	// --- Environment ---
	case ADDRESS:
		stack.pushSlot().SetBytes(f.address[:])
	case BALANCE:
		addrWord := stack.peek(0)
		addr := wordToAddress(addrWord)
		warm := e.State.AddressWarm(addr)
		if !chargeAccountAccess(f, warm) {
			return nil, 0, false, ErrOutOfGas
		}
		if e.hookWS {
			e.Hooks.worldState(WorldStateAccess{Kind: WSBalance, Addr: addr, Warm: warm})
		}
		addrWord.Set(e.State.GetBalance(addr))
	case ORIGIN:
		stack.pushSlot().SetBytes(e.Tx.Origin[:])
	case CALLER:
		stack.pushSlot().SetBytes(f.caller[:])
	case CALLVALUE:
		stack.push(f.value)
	case CALLDATALOAD:
		offset := stack.peek(0)
		if off, overflow := offset.Uint64WithOverflow(); !overflow {
			offset.SetBytes(getData(f.input, off, 32))
		} else {
			offset.Clear()
		}
	case CALLDATASIZE:
		stack.pushUint64(uint64(len(f.input)))
	case CALLDATACOPY:
		memOff := stack.pop()
		dataOff := stack.pop()
		size := stack.pop()
		dst, sz, err := e.memSpan(f, &memOff, &size)
		if err != nil {
			return nil, 0, false, err
		}
		if err := f.chargeCopy(sz); err != nil {
			return nil, 0, false, err
		}
		src, _ := dataOff.Uint64WithOverflow()
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: dst, Size: sz, Write: true})
		}
		f.mem.set(dst, getData(f.input, src, sz))
	case CODESIZE:
		stack.pushUint64(uint64(len(f.code)))
	case CODECOPY:
		memOff := stack.pop()
		codeOff := stack.pop()
		size := stack.pop()
		dst, sz, err := e.memSpan(f, &memOff, &size)
		if err != nil {
			return nil, 0, false, err
		}
		if err := f.chargeCopy(sz); err != nil {
			return nil, 0, false, err
		}
		src, _ := codeOff.Uint64WithOverflow()
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: dst, Size: sz, Write: true})
		}
		f.mem.set(dst, getData(f.code, src, sz))
	case GASPRICE:
		stack.push(e.Tx.GasPrice)
	case EXTCODESIZE:
		addrWord := stack.peek(0)
		addr := wordToAddress(addrWord)
		warm := e.State.AddressWarm(addr)
		if !chargeAccountAccess(f, warm) {
			return nil, 0, false, ErrOutOfGas
		}
		if e.hookWS {
			e.Hooks.worldState(WorldStateAccess{Kind: WSCodeSize, Addr: addr, Warm: warm})
		}
		addrWord.SetUint64(uint64(e.State.GetCodeSize(addr)))
	case EXTCODECOPY:
		addrWord := stack.pop()
		memOff := stack.pop()
		codeOff := stack.pop()
		size := stack.pop()
		addr := wordToAddress(&addrWord)
		warm := e.State.AddressWarm(addr)
		if !chargeAccountAccess(f, warm) {
			return nil, 0, false, ErrOutOfGas
		}
		dst, sz, err := e.memSpan(f, &memOff, &size)
		if err != nil {
			return nil, 0, false, err
		}
		if err := f.chargeCopy(sz); err != nil {
			return nil, 0, false, err
		}
		if e.hookWS {
			e.Hooks.worldState(WorldStateAccess{Kind: WSCode, Addr: addr, Warm: warm})
		}
		src, _ := codeOff.Uint64WithOverflow()
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: dst, Size: sz, Write: true})
		}
		f.mem.set(dst, getData(e.State.GetCode(addr), src, sz))
	case RETURNDATASIZE:
		stack.pushUint64(uint64(len(f.retData)))
	case RETURNDATACOPY:
		memOff := stack.pop()
		dataOff := stack.pop()
		size := stack.pop()
		src, overflow := dataOff.Uint64WithOverflow()
		if overflow {
			return nil, 0, false, ErrReturnDataOOB
		}
		szCheck, overflow := size.Uint64WithOverflow()
		if overflow || src+szCheck < src || src+szCheck > uint64(len(f.retData)) {
			return nil, 0, false, ErrReturnDataOOB
		}
		dst, sz, err := e.memSpan(f, &memOff, &size)
		if err != nil {
			return nil, 0, false, err
		}
		if err := f.chargeCopy(sz); err != nil {
			return nil, 0, false, err
		}
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: dst, Size: sz, Write: true})
		}
		f.mem.set(dst, f.retData[src:src+sz])
	case EXTCODEHASH:
		addrWord := stack.peek(0)
		addr := wordToAddress(addrWord)
		warm := e.State.AddressWarm(addr)
		if !chargeAccountAccess(f, warm) {
			return nil, 0, false, ErrOutOfGas
		}
		if e.hookWS {
			e.Hooks.worldState(WorldStateAccess{Kind: WSCodeHash, Addr: addr, Warm: warm})
		}
		h := e.State.GetCodeHash(addr)
		addrWord.SetBytes(h[:])

	// --- Block context ---
	case BLOCKHASH:
		num := stack.peek(0)
		var h types.Hash
		if e.Block.BlockHash != nil && num.IsUint64() {
			n := num.Uint64()
			// Only the most recent 256 blocks are visible.
			if n < e.Block.Number && e.Block.Number-n <= 256 {
				h = e.Block.BlockHash(n)
			}
		}
		num.SetBytes(h[:])
	case COINBASE:
		stack.pushSlot().SetBytes(e.Block.Coinbase[:])
	case TIMESTAMP:
		stack.pushUint64(e.Block.Timestamp)
	case NUMBER:
		stack.pushUint64(e.Block.Number)
	case PREVRANDAO:
		stack.pushSlot().SetBytes(e.Block.PrevRandao[:])
	case GASLIMIT:
		stack.pushUint64(e.Block.GasLimit)
	case CHAINID:
		stack.push(e.Block.ChainID)
	case SELFBALANCE:
		stack.push(e.State.GetBalance(f.address))
	case BASEFEE:
		stack.push(e.Block.BaseFee)

	// --- Stack / memory / storage / flow ---
	case MLOAD:
		offset := stack.peek(0)
		off, overflow := offset.Uint64WithOverflow()
		if overflow {
			return nil, 0, false, ErrGasUintOverflow
		}
		if err := e.chargeMemory(f, off, 32); err != nil {
			return nil, 0, false, err
		}
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: off, Size: 32})
		}
		offset.SetBytes(f.mem.view(off, 32))
	case MSTORE:
		offset := stack.pop()
		val := stack.pop()
		off, overflow := offset.Uint64WithOverflow()
		if overflow {
			return nil, 0, false, ErrGasUintOverflow
		}
		if err := e.chargeMemory(f, off, 32); err != nil {
			return nil, 0, false, err
		}
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: off, Size: 32, Write: true})
		}
		f.mem.set32(off, &val)
	case MSTORE8:
		offset := stack.pop()
		val := stack.pop()
		off, overflow := offset.Uint64WithOverflow()
		if overflow {
			return nil, 0, false, ErrGasUintOverflow
		}
		if err := e.chargeMemory(f, off, 1); err != nil {
			return nil, 0, false, err
		}
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: off, Size: 1, Write: true})
		}
		f.mem.setByte(off, byte(val.Uint64()))
	case SLOAD:
		keyWord := stack.peek(0)
		key := types.BytesToHash(keyBytes(keyWord))
		warm := e.State.SlotWarm(f.address, key)
		cost := ColdSloadGas
		if warm {
			cost = WarmStorageReadGas
		}
		if !f.useGas(cost) {
			return nil, 0, false, ErrOutOfGas
		}
		v := e.State.GetStorage(f.address, key)
		if e.hookWS {
			e.Hooks.worldState(WorldStateAccess{Kind: WSStorage, Addr: f.address, Key: key, Warm: warm})
		}
		keyWord.SetBytes(v[:])
	case SSTORE:
		if e.readOnly {
			return nil, 0, false, ErrWriteProtection
		}
		if f.gas <= sstoreSentryGas {
			return nil, 0, false, ErrOutOfGas
		}
		keyWord := stack.pop()
		valWord := stack.pop()
		key := types.BytesToHash(keyBytes(&keyWord))
		valB := valWord.Bytes32()
		value := types.Hash(valB)
		if err := e.sstoreGas(f, key, value); err != nil {
			return nil, 0, false, err
		}
		if e.hookWS {
			e.Hooks.worldState(WorldStateAccess{Kind: WSStorage, Addr: f.address, Key: key, Write: true, Warm: true})
		}
		e.State.SetStorage(f.address, key, value)
	case JUMP:
		dest := stack.pop()
		if !f.validJumpdest(&dest) {
			return nil, 0, false, ErrInvalidJump
		}
		nextPC = dest.Uint64()
	case JUMPI:
		dest := stack.pop()
		cond := stack.pop()
		if !cond.IsZero() {
			if !f.validJumpdest(&dest) {
				return nil, 0, false, ErrInvalidJump
			}
			nextPC = dest.Uint64()
		}
	case PC:
		stack.pushUint64(pc)
	case MSIZE:
		stack.pushUint64(uint64(f.mem.Len()))
	case GAS:
		stack.pushUint64(f.gas)
	case TLOAD:
		keyWord := stack.peek(0)
		key := types.BytesToHash(keyBytes(keyWord))
		v := e.State.GetTransient(f.address, key)
		keyWord.SetBytes(v[:])
	case TSTORE:
		if e.readOnly {
			return nil, 0, false, ErrWriteProtection
		}
		keyWord := stack.pop()
		valWord := stack.pop()
		key := types.BytesToHash(keyBytes(&keyWord))
		valB := valWord.Bytes32()
		e.State.SetTransient(f.address, key, types.Hash(valB))
	case MCOPY:
		dstWord := stack.pop()
		srcWord := stack.pop()
		size := stack.pop()
		sz, overflow := size.Uint64WithOverflow()
		if overflow {
			return nil, 0, false, ErrGasUintOverflow
		}
		dst, overflow := dstWord.Uint64WithOverflow()
		if overflow {
			return nil, 0, false, ErrGasUintOverflow
		}
		src, overflow := srcWord.Uint64WithOverflow()
		if overflow {
			return nil, 0, false, ErrGasUintOverflow
		}
		if sz > 0 {
			// Charge expansion over the larger reach.
			reach := dst
			if src > reach {
				reach = src
			}
			if err := e.chargeMemory(f, reach, sz); err != nil {
				return nil, 0, false, err
			}
			if err := f.chargeCopy(sz); err != nil {
				return nil, 0, false, err
			}
			// Ensure both spans are in bounds.
			if err := e.chargeMemory(f, dst, sz); err != nil {
				return nil, 0, false, err
			}
			if err := e.chargeMemory(f, src, sz); err != nil {
				return nil, 0, false, err
			}
			if e.hookMem {
				e.Hooks.memAccess(MemAccess{Offset: src, Size: sz})
			}
			if e.hookMem {
				e.Hooks.memAccess(MemAccess{Offset: dst, Size: sz, Write: true})
			}
			f.mem.copyWithin(dst, src, sz)
		}
	case PUSH0:
		stack.pushZero()

	// --- Logs ---
	case LOG0, LOG1, LOG2, LOG3, LOG4:
		if e.readOnly {
			return nil, 0, false, ErrWriteProtection
		}
		topicCount := int(op - LOG0)
		offset := stack.pop()
		size := stack.pop()
		off, sz, err := e.memSpan(f, &offset, &size)
		if err != nil {
			return nil, 0, false, err
		}
		if !f.useGas(logTopicGas*uint64(topicCount) + logDataGas*sz) {
			return nil, 0, false, ErrOutOfGas
		}
		log := &types.Log{Address: f.address, Data: f.mem.get(off, sz)}
		for i := 0; i < topicCount; i++ {
			topic := stack.pop()
			tb := topic.Bytes32()
			log.Topics = append(log.Topics, types.Hash(tb))
		}
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: off, Size: sz})
		}
		e.State.AddLog(log)

	// --- Calls and creates ---
	case CREATE, CREATE2:
		if e.readOnly {
			return nil, 0, false, ErrWriteProtection
		}
		value := stack.pop()
		offset := stack.pop()
		size := stack.pop()
		var salt types.Hash
		if op == CREATE2 {
			s := stack.pop()
			sb := s.Bytes32()
			salt = types.Hash(sb)
		}
		off, sz, err := e.memSpan(f, &offset, &size)
		if err != nil {
			return nil, 0, false, err
		}
		// EIP-3860 initcode word cost.
		if !f.useGas(initCodeWordGas * wordCount(sz)) {
			return nil, 0, false, ErrOutOfGas
		}
		if op == CREATE2 {
			// CREATE2 hashes the initcode.
			if !f.useGas(keccakGasPerWord * wordCount(sz)) {
				return nil, 0, false, ErrOutOfGas
			}
		}
		initCode := f.mem.get(off, sz)
		gas := f.gas - f.gas/64 // EIP-150 reserve
		f.gas -= gas

		var (
			created types.Address
			leftGas uint64
			retData []byte
			callErr error
		)
		if op == CREATE {
			retData, created, leftGas, callErr = e.Create(f.address, initCode, gas, &value)
		} else {
			retData, created, leftGas, callErr = e.Create2(f.address, initCode, salt, gas, &value)
		}
		f.gas += leftGas
		f.retData = nil
		if errors.Is(callErr, ErrExecutionReverted) {
			f.retData = retData
		}
		if callErr != nil {
			stack.pushZero()
		} else {
			stack.pushSlot().SetBytes(created[:])
		}

	case CALL, CALLCODE, DELEGATECALL, STATICCALL:
		ret2, err := e.execCall(f, op)
		if err != nil {
			return nil, 0, false, err
		}
		_ = ret2

	// --- Termination ---
	case RETURN, REVERT:
		offset := stack.pop()
		size := stack.pop()
		off, sz, err := e.memSpan(f, &offset, &size)
		if err != nil {
			return nil, 0, false, err
		}
		if e.hookMem {
			e.Hooks.memAccess(MemAccess{Offset: off, Size: sz})
		}
		return f.mem.get(off, sz), nextPC, true, nil

	case INVALID:
		return nil, 0, false, ErrInvalidOpcode

	case SELFDESTRUCT:
		if e.readOnly {
			return nil, 0, false, ErrWriteProtection
		}
		beneficiaryWord := stack.pop()
		beneficiary := wordToAddress(&beneficiaryWord)
		warm := e.State.AddressWarm(beneficiary)
		if !warm {
			if !f.useGas(ColdAccountAccessGas) {
				return nil, 0, false, ErrOutOfGas
			}
		}
		balance := e.State.GetBalance(f.address)
		// New-account surcharge when sending to a fresh account.
		if !balance.IsZero() && !e.State.Exists(beneficiary) {
			if !f.useGas(callNewAccountGas) {
				return nil, 0, false, ErrOutOfGas
			}
		}
		e.State.AddBalance(beneficiary, balance)
		e.State.Selfdestruct(f.address)
		return nil, nextPC, true, nil

	default:
		return nil, 0, false, ErrInvalidOpcode
	}
	return nil, nextPC, false, nil
}

// execCall implements the four message-call opcodes.
func (e *EVM) execCall(f *frame, op OpCode) ([]byte, error) {
	stack := f.stack
	gasWord := stack.pop()
	addrWord := stack.pop()
	value := new(uint256.Int)
	if op == CALL || op == CALLCODE {
		v := stack.pop()
		value = &v
	}
	inOff := stack.pop()
	inSize := stack.pop()
	outOff := stack.pop()
	outSize := stack.pop()

	target := wordToAddress(&addrWord)

	// Static context forbids value transfer.
	if op == CALL && e.readOnly && !value.IsZero() {
		return nil, ErrWriteProtection
	}

	// EIP-2929 account access.
	warm := e.State.AddressWarm(target)
	if !chargeAccountAccess(f, warm) {
		return nil, ErrOutOfGas
	}

	// Memory for input and output.
	iOff, iSz, err := e.memSpan(f, &inOff, &inSize)
	if err != nil {
		return nil, err
	}
	oOff, oSz, err := e.memSpan(f, &outOff, &outSize)
	if err != nil {
		return nil, err
	}

	// Value-transfer surcharges.
	var extraGas uint64
	if !value.IsZero() {
		extraGas += callValueTransferGas
		if op == CALL && !e.State.Exists(target) {
			extraGas += callNewAccountGas
		}
	}
	if !f.useGas(extraGas) {
		return nil, ErrOutOfGas
	}

	// Requested gas, capped by 63/64.
	requested, overflow := gasWord.Uint64WithOverflow()
	if overflow {
		requested = ^uint64(0)
	}
	gas := callGasCap(f.gas, requested)
	if !f.useGas(gas) {
		return nil, ErrOutOfGas
	}
	if !value.IsZero() {
		gas += callStipend
	}

	input := f.mem.get(iOff, iSz)
	if e.hookMem {
		e.Hooks.memAccess(MemAccess{Offset: iOff, Size: iSz})
	}

	var (
		ret     []byte
		leftGas uint64
		callErr error
	)
	switch op {
	case CALL:
		ret, leftGas, callErr = e.callInternal(CallKindCall, f.address, target, target, input, gas, value, false)
	case CALLCODE:
		ret, leftGas, callErr = e.callInternal(CallKindCallCode, f.address, f.address, target, input, gas, value, false)
	case DELEGATECALL:
		// Keep caller context and value.
		ret, leftGas, callErr = e.callInternal(CallKindDelegateCall, f.caller, f.address, target, input, gas, f.value, false)
	case STATICCALL:
		ret, leftGas, callErr = e.callInternal(CallKindStaticCall, f.address, target, target, input, gas, new(uint256.Int), true)
	}

	f.gas += leftGas
	f.retData = ret

	// Copy output into memory (truncated to outSize).
	if callErr == nil || errors.Is(callErr, ErrExecutionReverted) {
		n := uint64(len(ret))
		if n > oSz {
			n = oSz
		}
		if n > 0 {
			if e.hookMem {
				e.Hooks.memAccess(MemAccess{Offset: oOff, Size: n, Write: true})
			}
			f.mem.set(oOff, ret[:n])
		}
	}

	if callErr == nil {
		stack.pushUint64(1)
	} else {
		stack.pushZero()
	}
	return ret, nil
}

// sstoreGas implements the EIP-2200/2929/3529 SSTORE gas and refunds.
func (e *EVM) sstoreGas(f *frame, key types.Hash, value types.Hash) error {
	// Cold-slot surcharge.
	warm := e.State.SlotWarm(f.address, key)
	if !warm {
		if !f.useGas(ColdSloadGas) {
			return ErrOutOfGas
		}
	}
	current := e.State.GetStorage(f.address, key)
	if current == value {
		if !f.useGas(WarmStorageReadGas) {
			return ErrOutOfGas
		}
		return nil
	}
	original := e.State.GetCommittedStorage(f.address, key)
	if original == current {
		if original.IsZero() {
			if !f.useGas(sstoreSetGas) {
				return ErrOutOfGas
			}
			return nil
		}
		if !f.useGas(sstoreResetGas) {
			return ErrOutOfGas
		}
		if value.IsZero() {
			e.State.AddRefund(sstoreClearRefund)
		}
		return nil
	}
	// Dirty slot.
	if !f.useGas(WarmStorageReadGas) {
		return ErrOutOfGas
	}
	if !original.IsZero() {
		if current.IsZero() {
			e.State.SubRefund(sstoreClearRefund)
		} else if value.IsZero() {
			e.State.AddRefund(sstoreClearRefund)
		}
	}
	if original == value {
		if original.IsZero() {
			e.State.AddRefund(sstoreSetGas - WarmStorageReadGas)
		} else {
			e.State.AddRefund(sstoreResetGas - WarmStorageReadGas)
		}
	}
	return nil
}

// chargeAccountAccess charges the EIP-2929 account access cost.
func chargeAccountAccess(f *frame, warm bool) bool {
	cost := ColdAccountAccessGas
	if warm {
		cost = WarmStorageReadGas
	}
	return f.useGas(cost)
}

// setBool sets z to 1 or 0.
func setBool(z *uint256.Int, b bool) {
	if b {
		z.SetOne()
	} else {
		z.Clear()
	}
}

// wordToAddress extracts the low 20 bytes of a word.
func wordToAddress(w *uint256.Int) types.Address {
	b := w.Bytes32()
	return types.BytesToAddress(b[12:])
}

// keyBytes returns the 32-byte representation of a word.
func keyBytes(w *uint256.Int) []byte {
	b := w.Bytes32()
	return b[:]
}
