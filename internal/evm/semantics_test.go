package evm

import (
	"bytes"
	"errors"
	"testing"

	"hardtape/internal/secp256k1"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

func TestMCopyOverlapping(t *testing.T) {
	// Forward-overlapping copy must behave like memmove: write
	// 64 bytes of pattern, copy [0,64) → [32,96), check [32,96) equals
	// the original [0,64).
	var code []byte
	code = append(code, push(0x1111)...)
	code = append(code, push(0)...)
	code = append(code, byte(MSTORE))
	code = append(code, push(0x2222)...)
	code = append(code, push(32)...)
	code = append(code, byte(MSTORE))
	// MCOPY(dst=32, src=0, size=64)
	code = append(code, push(64)...)
	code = append(code, push(0)...)
	code = append(code, push(32)...)
	code = append(code, byte(MCOPY))
	// return memory[32:96]
	code = append(code, push(64)...)
	code = append(code, push(32)...)
	code = append(code, byte(RETURN))
	ret, _, err := runCode(t, code, nil, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret) != 64 {
		t.Fatalf("len = %d", len(ret))
	}
	w1 := new(uint256.Int).SetBytes(ret[:32])
	w2 := new(uint256.Int).SetBytes(ret[32:])
	if !w1.Eq(uint256.NewInt(0x1111)) || !w2.Eq(uint256.NewInt(0x2222)) {
		t.Fatalf("overlapping MCOPY: %s %s", w1, w2)
	}
}

func TestCreateInStaticContextFails(t *testing.T) {
	// STATICCALL → callee attempts CREATE → the static frame fails.
	calleeCode := cat(
		push(0), push(0), push(0), []byte{byte(CREATE), byte(POP), byte(STOP)},
	)
	var code []byte
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, byte(PUSH1)+19)
	code = append(code, calleeAddr[:]...)
	code = append(code, push(200_000)...)
	code = append(code, byte(STATICCALL))
	code = append(code, returnTop...)
	e := newTestEVM(t, code)
	deployAt(e, calleeAddr, calleeCode)
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.IsZero() {
		t.Fatalf("CREATE inside static context returned status %s", got)
	}
}

func TestLogInStaticContextFails(t *testing.T) {
	calleeCode := cat(push(0), push(0), []byte{byte(LOG0), byte(STOP)})
	var code []byte
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, byte(PUSH1)+19)
	code = append(code, calleeAddr[:]...)
	code = append(code, push(200_000)...)
	code = append(code, byte(STATICCALL))
	code = append(code, returnTop...)
	e := newTestEVM(t, code)
	deployAt(e, calleeAddr, calleeCode)
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.IsZero() {
		t.Fatalf("LOG inside static context returned status %s", got)
	}
	if len(e.State.Logs()) != 0 {
		t.Fatal("log emitted despite static protection")
	}
}

func TestSelfdestructInStaticContextFails(t *testing.T) {
	calleeCode := cat(push(0), []byte{byte(SELFDESTRUCT)})
	var code []byte
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, push(0)...)
	code = append(code, byte(PUSH1)+19)
	code = append(code, calleeAddr[:]...)
	code = append(code, push(200_000)...)
	code = append(code, byte(STATICCALL))
	code = append(code, returnTop...)
	e := newTestEVM(t, code)
	deployAt(e, calleeAddr, calleeCode)
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.IsZero() {
		t.Fatal("SELFDESTRUCT inside static context succeeded")
	}
	if e.State.HasSelfdestructed(calleeAddr) {
		t.Fatal("destruct leaked through static context")
	}
}

func TestExpGasScalesWithExponentBytes(t *testing.T) {
	// EXP costs 10 + 50 per exponent byte.
	run := func(exp *uint256.Int) uint64 {
		eb := exp.Bytes32()
		code := cat(
			[]byte{byte(PUSH32)}, eb[:],
			push(2),
			[]byte{byte(EXP), byte(POP), byte(STOP)},
		)
		gas := uint64(100_000)
		_, left, err := runCode(t, code, nil, gas)
		if err != nil {
			t.Fatal(err)
		}
		return gas - left
	}
	oneByte := run(uint256.NewInt(0xff))
	twoBytes := run(uint256.NewInt(0xffff))
	if twoBytes-oneByte != expByteGas {
		t.Fatalf("per-byte EXP cost = %d, want %d", twoBytes-oneByte, expByteGas)
	}
	thirtyTwo := run(new(uint256.Int).Not(new(uint256.Int)))
	if thirtyTwo-oneByte != 31*expByteGas {
		t.Fatalf("32-byte exponent delta = %d", thirtyTwo-oneByte)
	}
}

func TestSARBoundaryShifts(t *testing.T) {
	negOne := new(uint256.Int).Not(new(uint256.Int))
	tests := []struct {
		shift, value, want *uint256.Int
	}{
		// shift ≥ 256 of a negative value → all ones.
		{uint256.NewInt(256), negOne, negOne},
		{uint256.NewInt(300), new(uint256.Int).Neg(uint256.NewInt(100)), negOne},
		// shift ≥ 256 of a positive value → 0.
		{uint256.NewInt(256), uint256.NewInt(100), new(uint256.Int)},
		// 255-bit shift of MIN_INT → -1.
		{uint256.NewInt(255),
			new(uint256.Int).Lsh(uint256.NewInt(1), 255), negOne},
	}
	for _, tt := range tests {
		got := evalBinary(t, SAR, tt.shift, tt.value)
		if !got.Eq(tt.want) {
			t.Errorf("SAR(%s, %s) = %s, want %s", tt.shift, tt.value, got.Hex(), tt.want.Hex())
		}
	}
}

func TestCodecopyOutOfRangeZeroPads(t *testing.T) {
	// CODECOPY past the end of code fills zeros.
	code := cat(
		push(32), push(10_000), push(0), []byte{byte(CODECOPY)},
		push(0), []byte{byte(MLOAD)},
		returnTop,
	)
	ret, _, err := runCode(t, code, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.IsZero() {
		t.Fatalf("out-of-range CODECOPY = %s", got)
	}
}

func TestNestedRevertRestoresOuterWrites(t *testing.T) {
	// Outer writes slot 0 = 1; calls callee which writes slot 0 = 2
	// (of its OWN storage via CALL — use DELEGATECALL so it shares
	// storage) then reverts. Outer's value must survive.
	calleeCode := cat(
		push(2), push(0), []byte{byte(SSTORE)},
		push(0), push(0), []byte{byte(REVERT)},
	)
	var code []byte
	code = append(code, push(1)...)
	code = append(code, push(0)...)
	code = append(code, byte(SSTORE))
	code = append(code, push(0)...) // outSize
	code = append(code, push(0)...) // outOff
	code = append(code, push(0)...) // inSize
	code = append(code, push(0)...) // inOff
	code = append(code, byte(PUSH1)+19)
	code = append(code, calleeAddr[:]...)
	code = append(code, push(200_000)...)
	code = append(code, byte(DELEGATECALL), byte(POP))
	code = append(code, push(0)...)
	code = append(code, byte(SLOAD))
	code = append(code, returnTop...)

	e := newTestEVM(t, code)
	deployAt(e, calleeAddr, calleeCode)
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.Eq(uint256.NewInt(1)) {
		t.Fatalf("outer write lost after nested revert: %s", got)
	}
}

func TestDeployedContractIsImmediatelyCallable(t *testing.T) {
	// CREATE then CALL the new contract in the same transaction.
	runtime := cat(push(0x77), returnTop)
	// initcode: MSTORE the runtime (it's short) then RETURN it.
	if len(runtime) > 32 {
		t.Fatalf("runtime too long for this encoding: %d", len(runtime))
	}
	padded := make([]byte, 32)
	copy(padded, runtime)
	initCode := cat(
		[]byte{byte(PUSH32)}, padded,
		push(0), []byte{byte(MSTORE)},
		push(uint64(len(runtime))), push(0), []byte{byte(RETURN)},
	)

	var code []byte
	// CREATE(value=0, off=0, size=len(initCode)) after CODECOPYing the
	// initcode from our own code tail... simpler: store initcode via
	// PUSH32 chunks is messy — deploy directly through the EVM API and
	// then CALL from bytecode instead.
	e := newTestEVM(t, nil)
	_, created, _, err := e.Create(testCaller, initCode, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	code = append(code, push(32)...) // outSize
	code = append(code, push(0)...)  // outOff
	code = append(code, push(0)...)  // inSize
	code = append(code, push(0)...)  // inOff
	code = append(code, push(0)...)  // value
	code = append(code, byte(PUSH1)+19)
	code = append(code, created[:]...)
	code = append(code, push(100_000)...)
	code = append(code, byte(CALL), byte(POP))
	code = append(code, push(32)...)
	code = append(code, push(0)...)
	code = append(code, byte(RETURN))
	deployAt(e, testContract, code)
	ret, _, err := e.Call(testCaller, testContract, nil, 1_000_000, new(uint256.Int))
	if err != nil {
		t.Fatal(err)
	}
	if got := new(uint256.Int).SetBytes(ret); !got.Eq(uint256.NewInt(0x77)) {
		t.Fatalf("call to created contract = %s", got)
	}
}

func TestStackSnapshotForTracers(t *testing.T) {
	s := newStack()
	s.push(uint256.NewInt(1))
	s.push(uint256.NewInt(2))
	snap := s.Snapshot()
	if len(snap) != 2 || !snap[0].Eq(uint256.NewInt(1)) || !snap[1].Eq(uint256.NewInt(2)) {
		t.Fatalf("snapshot: %v", snap)
	}
	// Mutating the stack must not affect the snapshot.
	s.pop()
	if len(snap) != 2 {
		t.Fatal("snapshot aliased")
	}
}

func TestMemoryViewVsGet(t *testing.T) {
	m := newMemory()
	m.resize(64)
	m.set(0, []byte{1, 2, 3})
	got := m.get(0, 3)
	view := m.view(0, 3)
	if !bytes.Equal(got, []byte{1, 2, 3}) || !bytes.Equal(view, got) {
		t.Fatal("get/view mismatch")
	}
	// get copies; view aliases.
	m.setByte(0, 9)
	if got[0] == 9 {
		t.Fatal("get must copy")
	}
	if view[0] != 9 {
		t.Fatal("view must alias")
	}
	if m.get(0, 0) != nil || m.view(0, 0) != nil {
		t.Fatal("zero-size access should be nil")
	}
}

func TestOpcodeStringAndDefined(t *testing.T) {
	if ADD.String() != "ADD" || KECCAK256.String() != "KECCAK256" {
		t.Fatal("mnemonics wrong")
	}
	if _opTable[0x0c].defined {
		t.Fatal("0x0c should be undefined")
	}
	if OpCode(0x0c).String() != "op(0x0c)" {
		t.Fatalf("undefined format: %s", OpCode(0x0c).String())
	}
	if !PUSH1.IsPush() || PUSH0.IsPush() || PUSH32.PushSize() != 32 {
		t.Fatal("push classification")
	}
	for op := 0; op < 256; op++ {
		o := OpCode(op)
		if _opTable[o].defined && o.String() == "" {
			t.Fatalf("defined opcode %#x without name", op)
		}
	}
}

func TestApplyTransactionCreate(t *testing.T) {
	// Contract-creating transaction end to end.
	e := newTestEVM(t, nil)
	initCode := cat(push(0), push(0), []byte{byte(RETURN)})
	tx := signedTxFor(t, e, nil, initCode, 200_000)
	res, err := e.ApplyTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("create tx failed: %v", res.Err)
	}
	if res.CreatedContract == (types.Address{}) {
		t.Fatal("no created address reported")
	}
	if e.State.GetNonce(res.CreatedContract) != 1 {
		t.Fatal("created contract nonce should be 1")
	}
	// Ethereum semantics (regression for the double-bump bug): the
	// address derives from the sender's PRE-transaction nonce, and the
	// sender's nonce advances exactly once.
	sender, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if want := types.CreateAddress(sender, tx.Nonce); res.CreatedContract != want {
		t.Fatalf("created at %s, want CreateAddress(sender, txNonce) = %s",
			res.CreatedContract, want)
	}
	if got := e.State.GetNonce(sender); got != tx.Nonce+1 {
		t.Fatalf("sender nonce = %d, want %d", got, tx.Nonce+1)
	}
}

// signedTxFor builds and signs a tx from a fresh key funded in e.
func signedTxFor(t *testing.T, e *EVM, to *types.Address, data []byte, gasLimit uint64) *types.Transaction {
	t.Helper()
	priv, err := secpGenerate(t)
	if err != nil {
		t.Fatal(err)
	}
	sender := types.Address(priv.Public.Address())
	e.State.CreateAccount(sender)
	e.State.AddBalance(sender, uint256.NewInt(1<<40))
	tx := &types.Transaction{
		Nonce: 0, GasPrice: uint256.NewInt(1), GasLimit: gasLimit,
		To: to, Value: new(uint256.Int), Data: data,
	}
	if err := tx.Sign(priv); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestMaxInitcodeInTransaction(t *testing.T) {
	e := newTestEVM(t, nil)
	big := make([]byte, MaxInitCodeSize+32)
	tx := signedTxFor(t, e, nil, big, 25_000_000)
	res, err := e.ApplyTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrMaxInitCodeSize) {
		t.Fatalf("oversize initcode tx: %v", res.Err)
	}
}

// secpGenerate isolates the secp256k1 dependency for test helpers.
func secpGenerate(t *testing.T) (*secp256k1.PrivateKey, error) {
	t.Helper()
	return secp256k1.GenerateKey([]byte(t.Name()))
}
