package evm

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"hardtape/internal/keccak"
	"hardtape/internal/secp256k1"
	"hardtape/internal/state"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

var calleeAddr = types.MustAddress("0xbbbb000000000000000000000000000000bbbb00")

// deployAt adds code to an address in the EVM's overlay.
func deployAt(e *EVM, addr types.Address, code []byte) {
	e.State.CreateAccount(addr)
	e.State.SetCode(addr, code)
}

// callOpcode builds caller code performing `op` on calleeAddr with the
// given value (for CALL/CALLCODE) and returning the callee's 32-byte
// output.
func callOpcode(op OpCode, value uint64) []byte {
	var code []byte
	// stack for CALL: gas, addr, value, inOff, inSize, outOff, outSize
	code = append(code, push(32)...) // outSize
	code = append(code, push(0)...)  // outOff
	code = append(code, push(0)...)  // inSize
	code = append(code, push(0)...)  // inOff
	if op == CALL || op == CALLCODE {
		code = append(code, push(value)...)
	}
	code = append(code, byte(PUSH1)+19)
	code = append(code, calleeAddr[:]...)
	code = append(code, push(500000)...) // gas
	// Now stack top-down: gas, addr, [value,] inOff, inSize, outOff, outSize.
	code = append(code, byte(op))
	// Return memory[0:32] regardless of status (pop status first).
	code = append(code, byte(POP))
	code = append(code, push(32)...)
	code = append(code, push(0)...)
	code = append(code, byte(RETURN))
	return code
}

func TestCallReturnsCalleeOutput(t *testing.T) {
	e := newTestEVM(t, callOpcode(CALL, 0))
	deployAt(e, calleeAddr, cat(push(0x42), returnTop))
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.Eq(uint256.NewInt(0x42)) {
		t.Fatalf("CALL output = %s", got)
	}
}

func TestCallStorageContext(t *testing.T) {
	// Callee writes 7 to its slot 0. Under CALL, the write lands in the
	// callee's storage; under CALLCODE/DELEGATECALL, in the caller's.
	calleeCode := cat(push(7), push(0), []byte{byte(SSTORE)}, []byte{byte(STOP)})
	for _, tt := range []struct {
		op           OpCode
		wantInCallee bool
	}{
		{CALL, true},
		{CALLCODE, false},
		{DELEGATECALL, false},
	} {
		e := newTestEVM(t, callOpcode(tt.op, 0))
		deployAt(e, calleeAddr, calleeCode)
		if _, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int)); err != nil {
			t.Fatalf("%s: %v", tt.op, err)
		}
		calleeV := e.State.GetStorage(calleeAddr, types.Hash{})
		callerV := e.State.GetStorage(testContract, types.Hash{})
		if tt.wantInCallee && (calleeV.IsZero() || !callerV.IsZero()) {
			t.Errorf("%s: write should land in callee (callee=%s caller=%s)", tt.op, calleeV, callerV)
		}
		if !tt.wantInCallee && (!calleeV.IsZero() || callerV.IsZero()) {
			t.Errorf("%s: write should land in caller (callee=%s caller=%s)", tt.op, calleeV, callerV)
		}
	}
}

func TestDelegateCallPreservesCallerAndValue(t *testing.T) {
	// Callee returns CALLER; under DELEGATECALL it must be the original
	// caller (testCaller), not the proxy contract.
	e := newTestEVM(t, callOpcode(DELEGATECALL, 0))
	deployAt(e, calleeAddr, cat([]byte{byte(CALLER)}, returnTop))
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.Eq(testCaller.Word()) {
		t.Fatalf("DELEGATECALL CALLER = %s, want original caller", got.Hex())
	}
}

func TestStaticCallBlocksWrites(t *testing.T) {
	// Callee attempts SSTORE → the static call must fail (status 0).
	statusCode := func(op OpCode) []byte {
		var code []byte
		code = append(code, push(0)...) // outSize
		code = append(code, push(0)...) // outOff
		code = append(code, push(0)...) // inSize
		code = append(code, push(0)...) // inOff
		code = append(code, byte(PUSH1)+19)
		code = append(code, calleeAddr[:]...)
		code = append(code, push(500000)...)
		code = append(code, byte(op))
		code = append(code, returnTop...) // return status
		return code
	}
	e := newTestEVM(t, statusCode(STATICCALL))
	deployAt(e, calleeAddr, cat(push(1), push(0), []byte{byte(SSTORE)}, []byte{byte(STOP)}))
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.IsZero() {
		t.Fatalf("STATICCALL with SSTORE should return status 0, got %s", got)
	}
	if !e.State.GetStorage(calleeAddr, types.Hash{}).IsZero() {
		t.Fatal("write leaked through static call")
	}

	// Static context propagates through nested plain CALLs.
	nested := types.MustAddress("0xcccc000000000000000000000000000000cccc00")
	// callee calls nested with CALL; nested SSTOREs.
	calleeCode := func() []byte {
		var code []byte
		code = append(code, push(0)...)
		code = append(code, push(0)...)
		code = append(code, push(0)...)
		code = append(code, push(0)...)
		code = append(code, push(0)...) // value
		code = append(code, byte(PUSH1)+19)
		code = append(code, nested[:]...)
		code = append(code, push(100000)...)
		code = append(code, byte(CALL))
		code = append(code, returnTop...)
		return code
	}()
	e2 := newTestEVM(t, statusCode(STATICCALL))
	deployAt(e2, calleeAddr, calleeCode)
	deployAt(e2, nested, cat(push(1), push(0), []byte{byte(SSTORE)}, []byte{byte(STOP)}))
	_, _, err = e2.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if !e2.State.GetStorage(nested, types.Hash{}).IsZero() {
		t.Fatal("write leaked through nested static context")
	}
}

func TestCallRevertPropagation(t *testing.T) {
	// Callee reverts with data; caller sees status 0 and returndata.
	var code []byte
	code = append(code, push(0)...) // outSize 0 — we'll use RETURNDATACOPY
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...) // value
	code = append(code, byte(PUSH1)+19)
	code = append(code, calleeAddr[:]...)
	code = append(code, push(500000)...)
	code = append(code, byte(CALL))
	code = append(code, byte(POP)) // drop status
	// Copy returndata to memory and return it.
	code = append(code, byte(RETURNDATASIZE))
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, byte(RETURNDATACOPY))
	code = append(code, byte(RETURNDATASIZE))
	code = append(code, push(0)...)
	code = append(code, byte(RETURN))

	e := newTestEVM(t, code)
	deployAt(e, calleeAddr, cat(
		push(0xdead), push(0), []byte{byte(MSTORE)},
		push(32), push(0), []byte{byte(REVERT)},
	))
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.Eq(uint256.NewInt(0xdead)) {
		t.Fatalf("revert data via RETURNDATACOPY = %s", got)
	}
}

func TestReturnDataCopyOOB(t *testing.T) {
	// RETURNDATACOPY beyond the buffer is a hard failure.
	code := cat(
		push(64), push(0), push(0), []byte{byte(RETURNDATACOPY)},
	)
	if _, _, err := runCode(t, code, nil, 100_000); !errors.Is(err, ErrReturnDataOOB) {
		t.Fatalf("OOB returndatacopy: %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	// A contract that calls itself recursively; must stop at depth 1024
	// without a hard error at the top.
	var code []byte
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...) // value
	code = append(code, byte(PUSH1)+19)
	code = append(code, testContract[:]...)
	code = append(code, byte(GAS)) // forward all gas
	code = append(code, byte(CALL))
	code = append(code, returnTop...)
	_, _, err := runCode(t, code, nil, 10_000_000)
	if err != nil {
		t.Fatalf("recursion top-level: %v", err)
	}
}

func TestCreateDeploysContract(t *testing.T) {
	// Initcode returning runtime [PUSH1 7, ... returnTop].
	runtime := cat(push(7), returnTop)
	// Build initcode: store runtime at 0 via MSTORE of padded word(s),
	// then RETURN. Simpler: CODECOPY the tail of initcode.
	// initcode layout: [header | runtime]
	header := func(runtimeLen, runtimeOff uint64) []byte {
		return cat(
			push(runtimeLen), push(runtimeOff), push(0), []byte{byte(CODECOPY)},
			push(runtimeLen), push(0), []byte{byte(RETURN)},
		)
	}
	// Compute header length by fixed-point iteration (PUSH width
	// depends on the offset value).
	h := header(uint64(len(runtime)), 0)
	for {
		next := header(uint64(len(runtime)), uint64(len(h)))
		if len(next) == len(h) {
			h = next
			break
		}
		h = next
	}
	initCode := cat(h, runtime)

	e := newTestEVM(t, nil)
	ret, addr, _, err := e.Create(testCaller, initCode, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatalf("Create: %v (ret=%x)", err, ret)
	}
	if !bytes.Equal(e.State.GetCode(addr), runtime) {
		t.Fatalf("deployed code = %x, want %x", e.State.GetCode(addr), runtime)
	}
	// The deployed contract runs.
	out, _, err := e.Call(testCaller, addr, nil, 100_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(out); !got.Eq(uint256.NewInt(7)) {
		t.Fatalf("deployed contract returned %s", got)
	}
	// Nonce-based address.
	if addr != types.CreateAddress(testCaller, 0) {
		t.Fatalf("create address mismatch")
	}
}

func TestCreate2Address(t *testing.T) {
	initCode := cat(push(0), push(0), []byte{byte(RETURN)}) // deploys empty code
	e := newTestEVM(t, nil)
	var salt types.Hash
	salt[31] = 9
	_, addr, _, err := e.Create2(testCaller, initCode, salt, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	want := types.Create2Address(testCaller, salt, types.BytesToHash(keccakBytes(initCode)))
	if addr != want {
		t.Fatalf("create2 address = %s, want %s", addr, want)
	}
	// Redeploying at the same address collides (nonce was set to 1).
	_, _, _, err = e.Create2(testCaller, initCode, salt, 1_000_000, new(uint256.Int))
	if !errors.Is(err, ErrAddressCollision) {
		t.Fatalf("collision: %v", err)
	}
}

func keccakBytes(b []byte) []byte {
	h := keccak.Sum256(b)
	return h[:]
}

func TestCreateRejectsEOFPrefixAndOversize(t *testing.T) {
	e := newTestEVM(t, nil)
	// Runtime starting with 0xef is rejected (EIP-3541).
	initCode := cat(
		push(0xef), push(0), []byte{byte(MSTORE8)},
		push(1), push(0), []byte{byte(RETURN)},
	)
	if _, _, _, err := e.Create(testCaller, initCode, 1_000_000, new(uint256.Int)); !errors.Is(err, ErrInvalidOpcode) {
		t.Fatalf("EOF prefix: %v", err)
	}
	// Oversized initcode.
	big := make([]byte, MaxInitCodeSize+1)
	if _, _, _, err := e.Create(testCaller, big, 10_000_000, new(uint256.Int)); !errors.Is(err, ErrMaxInitCodeSize) {
		t.Fatalf("oversize initcode: %v", err)
	}
	// Oversized deployed code: return 24577 bytes.
	initCode = cat(push(MaxCodeSize+1), push(0), []byte{byte(RETURN)})
	if _, _, _, err := e.Create(testCaller, initCode, 30_000_000, new(uint256.Int)); !errors.Is(err, ErrMaxCodeSize) {
		t.Fatalf("oversize code: %v", err)
	}
}

func TestCreateRevertReturnsData(t *testing.T) {
	e := newTestEVM(t, nil)
	initCode := cat(
		push(0x55), push(0), []byte{byte(MSTORE)},
		push(32), push(0), []byte{byte(REVERT)},
	)
	ret, _, left, err := e.Create(testCaller, initCode, 1_000_000, new(uint256.Int))
	if !errors.Is(err, ErrExecutionReverted) {
		t.Fatalf("err = %v", err)
	}
	if left == 0 {
		t.Fatal("reverted create should refund gas")
	}
	if got := new(uint256.Int).SetBytes(ret); !got.Eq(uint256.NewInt(0x55)) {
		t.Fatalf("revert data = %s", got)
	}
}

// TestRevertedCreateLeavesNoCode: a frame CREATEs a contract and then
// reverts. The code store is journaled with the frame, so no code is
// left in the per-transaction overlay or in the write set it commits.
func TestRevertedCreateLeavesNoCode(t *testing.T) {
	runtime := cat(push(7), returnTop)
	// Initcode: MSTORE the runtime right-aligned in word 0, RETURN it.
	var word [32]byte
	copy(word[32-len(runtime):], runtime)
	initCode := cat([]byte{byte(PUSH32)}, word[:], push(0), []byte{byte(MSTORE)},
		push(uint64(len(runtime))), push(uint64(32-len(runtime))), []byte{byte(RETURN)})
	// The frame: copy the initcode from calldata, CREATE, then REVERT.
	outer := cat(
		[]byte{byte(CALLDATASIZE)}, push(0), push(0), []byte{byte(CALLDATACOPY)},
		[]byte{byte(CALLDATASIZE)}, push(0), push(0), []byte{byte(CREATE)},
		push(0), push(0), []byte{byte(REVERT)},
	)
	w := state.NewWorldState()
	caller := types.NewAccount()
	caller.Balance.SetUint64(1_000_000_000)
	contract := types.NewAccount()
	contract.CodeHash = w.SetCode(outer)
	if err := w.SetAccount(testCaller, caller); err != nil {
		t.Fatal(err)
	}
	if err := w.SetAccount(testContract, contract); err != nil {
		t.Fatal(err)
	}
	v := state.NewVersioned()
	txo := state.NewTxOverlay(v, w)
	e := New(BlockContext{GasLimit: 30_000_000}, txo)
	created := types.CreateAddress(testContract, 0)

	// The same CREATE without the REVERT deploys: the test is not vacuous.
	probe := New(BlockContext{GasLimit: 30_000_000}, state.NewTxOverlay(v, w))
	if _, addr, _, err := probe.Create(testContract, initCode, 1_000_000, new(uint256.Int)); err != nil ||
		addr != created || !bytes.Equal(probe.State.GetCode(created), runtime) {
		t.Fatalf("CREATE alone: %v, address %s, code %x", err, addr, probe.State.GetCode(created))
	}

	txo.BeginTx()
	if _, _, err := e.Call(testCaller, testContract, initCode, 1_000_000, new(uint256.Int)); !errors.Is(err, ErrExecutionReverted) {
		t.Fatalf("outer frame: %v, want a revert", err)
	}
	if code := txo.GetCode(created); code != nil {
		t.Fatalf("reverted CREATE left code %x at %s", code, created)
	}
	_, ws := txo.Finish()
	v.Commit(ws)
	if code := v.View(w).Code(types.Hash(keccak.Sum256(runtime))); code != nil {
		t.Fatalf("reverted CREATE committed code %x", code)
	}
}

func TestSelfdestructOpcode(t *testing.T) {
	beneficiary := types.MustAddress("0x1234000000000000000000000000000000001234")
	code := cat([]byte{byte(PUSH1) + 19}, beneficiary[:], []byte{byte(SELFDESTRUCT)})
	e := newTestEVM(t, code)
	e.State.AddBalance(testContract, uint256.NewInt(999))
	_, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.State.GetBalance(beneficiary); !got.Eq(uint256.NewInt(999)) {
		t.Fatalf("beneficiary balance = %s", got)
	}
	if !e.State.HasSelfdestructed(testContract) {
		t.Fatal("contract not marked destructed")
	}
}

func TestPrecompileSha256(t *testing.T) {
	target := types.MustAddress("0x0000000000000000000000000000000000000002")
	e := newTestEVM(t, nil)
	input := []byte("hello world")
	ret, _, err := e.Call(testCaller, target, input, 100_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(input)
	if !bytes.Equal(ret, want[:]) {
		t.Fatalf("sha256 precompile = %x", ret)
	}
}

func TestPrecompileIdentity(t *testing.T) {
	target := types.MustAddress("0x0000000000000000000000000000000000000004")
	e := newTestEVM(t, nil)
	input := []byte{1, 2, 3, 4, 5}
	ret, _, err := e.Call(testCaller, target, input, 100_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ret, input) {
		t.Fatalf("identity = %x", ret)
	}
}

func TestPrecompileEcrecover(t *testing.T) {
	priv, err := secp256k1.GenerateKey([]byte("ecrecover test"))
	if err != nil {
		t.Fatal(err)
	}
	msgHash := types.BytesToHash(keccakBytes([]byte("signed message")))
	sig, err := priv.Sign(msgHash[:])
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 128)
	copy(input[:32], msgHash[:])
	input[63] = sig.V + 27
	r, s := sig.R.Bytes32(), sig.S.Bytes32()
	copy(input[64:96], r[:])
	copy(input[96:128], s[:])

	target := types.MustAddress("0x0000000000000000000000000000000000000001")
	e := newTestEVM(t, nil)
	ret, _, err := e.Call(testCaller, target, input, 100_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	wantAddr := priv.Public.Address()
	if !bytes.Equal(ret[12:], wantAddr[:]) {
		t.Fatalf("ecrecover = %x, want %x", ret[12:], wantAddr)
	}
	// Garbage input returns empty, not error.
	ret, _, err = e.Call(testCaller, target, make([]byte, 128), 100_000, new(uint256.Int))
	if err != nil || len(ret) != 0 {
		t.Fatalf("garbage ecrecover: ret=%x err=%v", ret, err)
	}
}

// The precompile is plain ecrecover: unlike a transaction signature
// (EIP-2), a high-s signature recovers, to the same address as its
// low-s twin.
func TestPrecompileEcrecoverAcceptsHighS(t *testing.T) {
	priv, err := secp256k1.GenerateKey([]byte("ecrecover high s"))
	if err != nil {
		t.Fatal(err)
	}
	msgHash := types.BytesToHash(keccakBytes([]byte("signed message")))
	sig, err := priv.Sign(msgHash[:])
	if err != nil {
		t.Fatal(err)
	}
	n := uint256.MustFromHex("0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	sig.S.Sub(n, &sig.S)
	sig.V ^= 1
	if sig.LowS() {
		t.Fatal("n-s of a low s is low")
	}
	input := make([]byte, 128)
	copy(input[:32], msgHash[:])
	input[63] = sig.V + 27
	r, s := sig.R.Bytes32(), sig.S.Bytes32()
	copy(input[64:96], r[:])
	copy(input[96:128], s[:])

	target := types.MustAddress("0x0000000000000000000000000000000000000001")
	ret, _, err := newTestEVM(t, nil).Call(testCaller, target, input, 100_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	wantAddr := priv.Public.Address()
	if len(ret) != 32 || !bytes.Equal(ret[12:], wantAddr[:]) {
		t.Fatalf("high-s ecrecover = %x, want %x", ret, wantAddr)
	}
}

func TestPrecompileUnsupported(t *testing.T) {
	target := types.MustAddress("0x0000000000000000000000000000000000000005") // modexp
	e := newTestEVM(t, nil)
	_, _, err := e.Call(testCaller, target, nil, 100_000, new(uint256.Int))
	if !errors.Is(err, ErrUnsupportedPrecompile) {
		t.Fatalf("modexp: %v", err)
	}
}

func TestApplyTransaction(t *testing.T) {
	priv, err := secp256k1.GenerateKey([]byte("tx sender"))
	if err != nil {
		t.Fatal(err)
	}
	sender := types.Address(priv.Public.Address())

	w := state.NewWorldState()
	o := state.NewOverlay(w)
	o.CreateAccount(sender)
	o.AddBalance(sender, uint256.NewInt(10_000_000))
	recipient := types.MustAddress("0x7777777777777777777777777777777777777777")

	e := New(BlockContext{Number: 1, GasLimit: 30_000_000,
		Coinbase: types.MustAddress("0x5555555555555555555555555555555555555555")}, o)

	tx := &types.Transaction{
		Nonce:    0,
		GasPrice: uint256.NewInt(2),
		GasLimit: 30_000,
		To:       &recipient,
		Value:    uint256.NewInt(1000),
	}
	if err := tx.Sign(priv); err != nil {
		t.Fatal(err)
	}
	res, err := e.ApplyTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Reverted() {
		t.Fatalf("result err = %v", res.Err)
	}
	if res.GasUsed != TxGas {
		t.Fatalf("gas used = %d, want %d", res.GasUsed, TxGas)
	}
	if got := o.GetBalance(recipient); !got.Eq(uint256.NewInt(1000)) {
		t.Fatalf("recipient balance = %s", got)
	}
	// Sender paid value + gas.
	wantSender := uint64(10_000_000 - 1000 - 2*TxGas)
	if got := o.GetBalance(sender); !got.Eq(uint256.NewInt(wantSender)) {
		t.Fatalf("sender balance = %s, want %d", got, wantSender)
	}
	// Coinbase earned the fee.
	if got := o.GetBalance(e.Block.Coinbase); !got.Eq(uint256.NewInt(2 * TxGas)) {
		t.Fatalf("coinbase = %s", got)
	}
	if o.GetNonce(sender) != 1 {
		t.Fatal("sender nonce not bumped")
	}

	// Replaying with the same nonce fails.
	if _, err := e.ApplyTransaction(tx); !errors.Is(err, ErrNonceMismatch) {
		t.Fatalf("replay: %v", err)
	}
}

func TestApplyTransactionValidation(t *testing.T) {
	priv, err := secp256k1.GenerateKey([]byte("validation"))
	if err != nil {
		t.Fatal(err)
	}
	sender := types.Address(priv.Public.Address())
	recipient := types.MustAddress("0x7777777777777777777777777777777777777777")

	newEVM := func(balance uint64) *EVM {
		o := state.NewOverlay(state.NewWorldState())
		o.CreateAccount(sender)
		o.AddBalance(sender, uint256.NewInt(balance))
		return New(BlockContext{Number: 1}, o)
	}

	// Insufficient funds.
	tx := &types.Transaction{Nonce: 0, GasPrice: uint256.NewInt(1), GasLimit: 21000, To: &recipient, Value: uint256.NewInt(0)}
	if err := tx.Sign(priv); err != nil {
		t.Fatal(err)
	}
	if _, err := newEVM(100).ApplyTransaction(tx); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("funds: %v", err)
	}
	// Intrinsic gas too high.
	tx2 := &types.Transaction{Nonce: 0, GasPrice: uint256.NewInt(1), GasLimit: 20000, To: &recipient, Value: new(uint256.Int)}
	if err := tx2.Sign(priv); err != nil {
		t.Fatal(err)
	}
	if _, err := newEVM(1_000_000).ApplyTransaction(tx2); !errors.Is(err, ErrIntrinsicGas) {
		t.Fatalf("intrinsic: %v", err)
	}
	// Unsigned.
	tx3 := &types.Transaction{Nonce: 0, GasPrice: uint256.NewInt(1), GasLimit: 21000, To: &recipient, Value: new(uint256.Int)}
	if _, err := newEVM(1_000_000).ApplyTransaction(tx3); err == nil {
		t.Fatal("unsigned tx should fail")
	}
}

func TestApplyTransactionRevertKeepsFee(t *testing.T) {
	priv, err := secp256k1.GenerateKey([]byte("revert fee"))
	if err != nil {
		t.Fatal(err)
	}
	sender := types.Address(priv.Public.Address())

	o := state.NewOverlay(state.NewWorldState())
	o.CreateAccount(sender)
	o.AddBalance(sender, uint256.NewInt(10_000_000))
	target := types.MustAddress("0xaaaa0000000000000000000000000000000000aa")
	o.CreateAccount(target)
	o.SetCode(target, cat(push(0), push(0), []byte{byte(REVERT)}))

	e := New(BlockContext{Number: 1}, o)
	tx := &types.Transaction{Nonce: 0, GasPrice: uint256.NewInt(1), GasLimit: 100_000, To: &target, Value: uint256.NewInt(500)}
	if err := tx.Sign(priv); err != nil {
		t.Fatal(err)
	}
	res, err := e.ApplyTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reverted() {
		t.Fatal("should have reverted")
	}
	// Value transfer rolled back, but gas was still consumed.
	if got := o.GetBalance(target); !got.IsZero() {
		t.Fatalf("target kept value after revert: %s", got)
	}
	if got := o.GetBalance(sender); got.Eq(uint256.NewInt(10_000_000)) {
		t.Fatal("sender paid no gas")
	}
	if o.GetNonce(sender) != 1 {
		t.Fatal("nonce must advance even on revert")
	}
}

func TestHooksFireDuringExecution(t *testing.T) {
	var steps, enters, exits, wsAccesses, memAccesses int
	hooks := &Hooks{
		OnStep:       func(StepInfo) { steps++ },
		OnCallEnter:  func(CallFrameInfo) { enters++ },
		OnCallExit:   func(CallResultInfo) { exits++ },
		OnWorldState: func(WorldStateAccess) { wsAccesses++ },
		OnMemAccess:  func(MemAccess) { memAccesses++ },
	}
	e := newTestEVM(t, callOpcode(CALL, 0))
	e.Hooks = hooks
	deployAt(e, calleeAddr, cat(
		push(1), push(0), []byte{byte(SSTORE)},
		push(3), returnTop,
	))
	if _, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int)); err != nil {
		t.Fatal(err)
	}
	if steps == 0 || enters != 2 || exits != 2 {
		t.Fatalf("hooks: steps=%d enters=%d exits=%d", steps, enters, exits)
	}
	if wsAccesses == 0 {
		t.Fatal("no world-state accesses observed")
	}
	if memAccesses == 0 {
		t.Fatal("no memory accesses observed")
	}
}
