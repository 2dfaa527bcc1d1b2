package state

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hardtape/internal/types"
	"hardtape/internal/uint256"
)

func addr(b byte) types.Address {
	var a types.Address
	a[19] = b
	return a
}

func hashOf(b byte) types.Hash {
	var h types.Hash
	h[31] = b
	return h
}

func TestWorldStateAccounts(t *testing.T) {
	w := NewWorldState()
	a := addr(1)
	if _, ok := w.Account(a); ok {
		t.Fatal("account should not exist")
	}
	acct := types.NewAccount()
	acct.Nonce = 3
	acct.Balance.SetUint64(1000)
	if err := w.SetAccount(a, acct); err != nil {
		t.Fatal(err)
	}
	got, ok := w.Account(a)
	if !ok || got.Nonce != 3 || got.Balance.Uint64() != 1000 {
		t.Fatalf("Account round trip: %+v ok=%v", got, ok)
	}
	// Mutating the returned account must not alias the stored one.
	got.Balance.SetUint64(1)
	got2, _ := w.Account(a)
	if got2.Balance.Uint64() != 1000 {
		t.Fatal("Account returned aliased state")
	}
	w.DeleteAccount(a)
	if _, ok := w.Account(a); ok {
		t.Fatal("deleted account still present")
	}
}

func TestWorldStateStorage(t *testing.T) {
	w := NewWorldState()
	a := addr(2)
	k, v := hashOf(1), hashOf(0xaa)
	if got := w.Storage(a, k); !got.IsZero() {
		t.Fatal("unset storage should be zero")
	}
	if err := w.SetStorage(a, k, v); err != nil {
		t.Fatal(err)
	}
	if got := w.Storage(a, k); got != v {
		t.Fatalf("storage = %s, want %s", got, v)
	}
	// Zero value deletes.
	if err := w.SetStorage(a, k, types.Hash{}); err != nil {
		t.Fatal(err)
	}
	if got := w.Storage(a, k); !got.IsZero() {
		t.Fatal("zeroed storage should read zero")
	}
	// Deleting an unset slot is fine.
	if err := w.SetStorage(a, hashOf(9), types.Hash{}); err != nil {
		t.Fatal(err)
	}
}

func TestWorldStateCode(t *testing.T) {
	w := NewWorldState()
	code := []byte{0x60, 0x01, 0x60, 0x02, 0x01}
	h := w.SetCode(code)
	if got := w.Code(h); string(got) != string(code) {
		t.Fatalf("code round trip failed: %x", got)
	}
	if w.Code(types.EmptyCodeHash) != nil {
		t.Fatal("empty code hash should yield nil")
	}
	if w.Code(types.Hash{}) != nil {
		t.Fatal("zero code hash should yield nil")
	}
}

func TestWorldStateRootChanges(t *testing.T) {
	w := NewWorldState()
	r0, err := w.Root()
	if err != nil {
		t.Fatal(err)
	}
	a := addr(3)
	if err := w.SetAccount(a, types.NewAccount()); err != nil {
		t.Fatal(err)
	}
	r1, err := w.Root()
	if err != nil {
		t.Fatal(err)
	}
	if r0 == r1 {
		t.Fatal("root unchanged after account creation")
	}
	// Storage writes change the root via the storage root field.
	if err := w.SetStorage(a, hashOf(1), hashOf(2)); err != nil {
		t.Fatal(err)
	}
	r2, err := w.Root()
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("root unchanged after storage write")
	}
}

func TestWorldStateKeysIndexes(t *testing.T) {
	w := NewWorldState()
	a := addr(7)
	if err := w.SetAccount(a, types.NewAccount()); err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 5; i++ {
		if err := w.SetStorage(a, hashOf(i), hashOf(0xf0+i)); err != nil {
			t.Fatal(err)
		}
	}
	keys := w.StorageKeys(a)
	if len(keys) != 5 {
		t.Fatalf("StorageKeys = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if string(keys[i-1][:]) >= string(keys[i][:]) {
			t.Fatal("StorageKeys not sorted")
		}
	}
	addrs := w.Addresses()
	if len(addrs) != 1 || addrs[0] != a {
		t.Fatalf("Addresses = %v", addrs)
	}
}

func TestOverlayFallThrough(t *testing.T) {
	w := NewWorldState()
	a := addr(1)
	acct := types.NewAccount()
	acct.Balance.SetUint64(500)
	if err := w.SetAccount(a, acct); err != nil {
		t.Fatal(err)
	}
	if err := w.SetStorage(a, hashOf(1), hashOf(0x11)); err != nil {
		t.Fatal(err)
	}

	o := NewOverlay(w)
	if o.GetBalance(a).Uint64() != 500 {
		t.Fatal("balance fall-through failed")
	}
	if o.GetStorage(a, hashOf(1)) != hashOf(0x11) {
		t.Fatal("storage fall-through failed")
	}
	// Overlay writes do not touch the backend.
	o.SetStorage(a, hashOf(1), hashOf(0x22))
	if o.GetStorage(a, hashOf(1)) != hashOf(0x22) {
		t.Fatal("overlay write invisible")
	}
	if w.Storage(a, hashOf(1)) != hashOf(0x11) {
		t.Fatal("overlay write leaked to backend")
	}
	if o.GetCommittedStorage(a, hashOf(1)) != hashOf(0x11) {
		t.Fatal("committed storage should see backend value")
	}
}

func TestOverlayBalanceNonce(t *testing.T) {
	o := NewOverlay(NewWorldState())
	a := addr(5)
	o.AddBalance(a, uint256.NewInt(100))
	o.SubBalance(a, uint256.NewInt(40))
	if o.GetBalance(a).Uint64() != 60 {
		t.Fatalf("balance = %d", o.GetBalance(a).Uint64())
	}
	o.SetNonce(a, 9)
	if o.GetNonce(a) != 9 {
		t.Fatal("nonce")
	}
	if !o.Exists(a) {
		t.Fatal("credited account should exist")
	}
}

func TestOverlayCode(t *testing.T) {
	o := NewOverlay(NewWorldState())
	a := addr(6)
	if o.GetCode(a) != nil || o.GetCodeSize(a) != 0 {
		t.Fatal("EOA should have no code")
	}
	if !o.GetCodeHash(a).IsZero() {
		t.Fatal("non-existent account EXTCODEHASH should be zero")
	}
	o.CreateAccount(a)
	if o.GetCodeHash(a) != types.EmptyCodeHash {
		t.Fatal("existing EOA EXTCODEHASH should be empty-code hash")
	}
	code := []byte{0x60, 0x00}
	o.SetCode(a, code)
	if string(o.GetCode(a)) != string(code) || o.GetCodeSize(a) != 2 {
		t.Fatal("code not set")
	}
}

func TestOverlaySnapshotRevert(t *testing.T) {
	w := NewWorldState()
	a := addr(1)
	acct := types.NewAccount()
	acct.Balance.SetUint64(1000)
	if err := w.SetAccount(a, acct); err != nil {
		t.Fatal(err)
	}
	o := NewOverlay(w)

	o.SetStorage(a, hashOf(1), hashOf(0x01))
	snap := o.Snapshot()

	o.SetStorage(a, hashOf(1), hashOf(0x02))
	o.SetStorage(a, hashOf(2), hashOf(0x03))
	o.SubBalance(a, uint256.NewInt(999))
	o.SetNonce(a, 42)
	o.AddLog(&types.Log{Address: a})
	o.AddRefund(100)
	o.SetTransient(a, hashOf(9), hashOf(0x55))
	if o.AddressWarm(a) {
		t.Fatal("address should have been cold")
	}

	o.RevertToSnapshot(snap)

	if o.GetStorage(a, hashOf(1)) != hashOf(0x01) {
		t.Error("storage not reverted to snapshot value")
	}
	if !o.GetStorage(a, hashOf(2)).IsZero() {
		t.Error("new storage slot not reverted")
	}
	if o.GetBalance(a).Uint64() != 1000 {
		t.Errorf("balance not reverted: %d", o.GetBalance(a).Uint64())
	}
	if o.GetNonce(a) != 0 {
		t.Error("nonce not reverted")
	}
	if len(o.Logs()) != 0 {
		t.Error("logs not reverted")
	}
	if o.GetRefund() != 0 {
		t.Error("refund not reverted")
	}
	if !o.GetTransient(a, hashOf(9)).IsZero() {
		t.Error("transient not reverted")
	}
	if o.AddressWarm(a) {
		t.Error("warmth not reverted")
	}
}

func TestOverlayNestedSnapshots(t *testing.T) {
	o := NewOverlay(NewWorldState())
	a := addr(2)
	o.SetStorage(a, hashOf(1), hashOf(1))
	s1 := o.Snapshot()
	o.SetStorage(a, hashOf(1), hashOf(2))
	s2 := o.Snapshot()
	o.SetStorage(a, hashOf(1), hashOf(3))

	o.RevertToSnapshot(s2)
	if o.GetStorage(a, hashOf(1)) != hashOf(2) {
		t.Fatal("inner revert wrong")
	}
	o.RevertToSnapshot(s1)
	if o.GetStorage(a, hashOf(1)) != hashOf(1) {
		t.Fatal("outer revert wrong")
	}
}

func TestOverlaySelfdestruct(t *testing.T) {
	w := NewWorldState()
	a := addr(3)
	acct := types.NewAccount()
	acct.Balance.SetUint64(777)
	if err := w.SetAccount(a, acct); err != nil {
		t.Fatal(err)
	}
	o := NewOverlay(w)
	snap := o.Snapshot()
	if !o.Selfdestruct(a) {
		t.Fatal("first selfdestruct should return true")
	}
	if o.Selfdestruct(a) {
		t.Fatal("second selfdestruct should return false")
	}
	if !o.GetBalance(a).IsZero() {
		t.Fatal("selfdestruct should zero balance")
	}
	if !o.HasSelfdestructed(a) {
		t.Fatal("HasSelfdestructed false")
	}
	// Revert resurrects.
	o.RevertToSnapshot(snap)
	if o.HasSelfdestructed(a) || o.GetBalance(a).Uint64() != 777 {
		t.Fatal("selfdestruct not reverted")
	}
	// Destruct again and finalise.
	o.Selfdestruct(a)
	o.FinaliseTx()
	if o.Exists(a) {
		t.Fatal("finalised destructed account should not exist")
	}
}

func TestOverlayWarmth(t *testing.T) {
	o := NewOverlay(NewWorldState())
	a := addr(4)
	if o.AddressWarm(a) {
		t.Fatal("first touch should be cold")
	}
	if !o.AddressWarm(a) {
		t.Fatal("second touch should be warm")
	}
	if o.SlotWarm(a, hashOf(1)) {
		t.Fatal("first slot touch should be cold")
	}
	if !o.SlotWarm(a, hashOf(1)) {
		t.Fatal("second slot touch should be warm")
	}
	if o.SlotWarm(a, hashOf(2)) {
		t.Fatal("different slot should be cold")
	}
	o.BeginTx()
	if o.AddressWarm(a) || o.SlotWarm(a, hashOf(1)) {
		t.Fatal("BeginTx should clear warmth")
	}
}

func TestOverlayBeginTxPersistsWrites(t *testing.T) {
	o := NewOverlay(NewWorldState())
	a := addr(5)
	o.SetStorage(a, hashOf(1), hashOf(0x77))
	o.AddBalance(a, uint256.NewInt(5))
	o.SetTransient(a, hashOf(1), hashOf(0xff))
	o.AddRefund(10)

	o.BeginTx()

	if o.GetStorage(a, hashOf(1)) != hashOf(0x77) {
		t.Error("storage should persist across txs in a bundle")
	}
	if o.GetBalance(a).Uint64() != 5 {
		t.Error("balance should persist across txs")
	}
	if !o.GetTransient(a, hashOf(1)).IsZero() {
		t.Error("transient storage must clear per tx")
	}
	if o.GetRefund() != 0 {
		t.Error("refund must clear per tx")
	}
}

func TestOverlayRefundClamp(t *testing.T) {
	o := NewOverlay(NewWorldState())
	o.AddRefund(10)
	o.SubRefund(25)
	if o.GetRefund() != 0 {
		t.Fatalf("refund should clamp at zero, got %d", o.GetRefund())
	}
}

func TestOverlayStorageWrites(t *testing.T) {
	o := NewOverlay(NewWorldState())
	a := addr(6)
	o.SetStorage(a, hashOf(1), hashOf(2))
	o.SetStorage(a, hashOf(3), hashOf(4))
	writes := o.StorageWrites()
	if len(writes) != 2 {
		t.Fatalf("StorageWrites = %d", len(writes))
	}
}

// Property: arbitrary mutate/snapshot/revert sequences leave the overlay
// equal to a model that applies only the committed operations.
func TestQuickOverlayJournal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := NewOverlay(NewWorldState())
		type modelState map[storageSlot]types.Hash
		model := modelState{}
		var stack []struct {
			snap  int
			model modelState
		}
		cloneModel := func(m modelState) modelState {
			c := modelState{}
			for k, v := range m {
				c[k] = v
			}
			return c
		}
		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				slot := storageSlot{addr(byte(rng.Intn(4))), hashOf(byte(rng.Intn(6)))}
				v := hashOf(byte(rng.Intn(250) + 1))
				o.SetStorage(slot.addr, slot.key, v)
				model[slot] = v
			case 2:
				stack = append(stack, struct {
					snap  int
					model modelState
				}{o.Snapshot(), cloneModel(model)})
			case 3:
				if len(stack) > 0 {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					o.RevertToSnapshot(top.snap)
					model = top.model
				}
			}
		}
		for slot, v := range model {
			if o.GetStorage(slot.addr, slot.key) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: WorldState roots are content-addressed — two stores with the
// same contents built in different orders agree.
func TestQuickWorldStateRootDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		type entry struct {
			a types.Address
			k types.Hash
			v types.Hash
		}
		var entries []entry
		for i := 0; i < n; i++ {
			entries = append(entries, entry{
				addr(byte(rng.Intn(6) + 1)),
				hashOf(byte(rng.Intn(6))),
				hashOf(byte(rng.Intn(250) + 1)),
			})
		}
		build := func(perm []int) types.Hash {
			w := NewWorldState()
			seen := map[types.Address]bool{}
			for _, idx := range perm {
				e := entries[idx]
				if !seen[e.a] {
					if err := w.SetAccount(e.a, types.NewAccount()); err != nil {
						return types.Hash{}
					}
					seen[e.a] = true
				}
				if err := w.SetStorage(e.a, e.k, e.v); err != nil {
					return types.Hash{}
				}
			}
			root, err := w.Root()
			if err != nil {
				return types.Hash{}
			}
			return root
		}
		fwd := make([]int, n)
		rev := make([]int, n)
		for i := 0; i < n; i++ {
			fwd[i], rev[i] = i, n-1-i
		}
		// Later writes win; to make orders comparable, dedupe slots.
		slotSeen := map[string]bool{}
		var dedup []entry
		for i := n - 1; i >= 0; i-- {
			key := fmt.Sprintf("%s/%s", entries[i].a, entries[i].k)
			if !slotSeen[key] {
				slotSeen[key] = true
				dedup = append([]entry{entries[i]}, dedup...)
			}
		}
		entries = dedup
		n = len(entries)
		fwd, rev = fwd[:n], rev[:n]
		for i := 0; i < n; i++ {
			fwd[i], rev[i] = i, n-1-i
		}
		return build(fwd) == build(rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOverlayStorageWrite(b *testing.B) {
	o := NewOverlay(NewWorldState())
	a := addr(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.SetStorage(a, hashOf(byte(i%64)), hashOf(byte(i%250+1)))
	}
}

func BenchmarkWorldStateRoot(b *testing.B) {
	w := NewWorldState()
	for i := 0; i < 100; i++ {
		a := addr(byte(i))
		if err := w.SetAccount(a, types.NewAccount()); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			if err := w.SetStorage(a, hashOf(byte(j)), hashOf(byte(j+1))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Root(); err != nil {
			b.Fatal(err)
		}
	}
}
