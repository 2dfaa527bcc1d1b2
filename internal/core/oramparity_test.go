package core

import (
	"fmt"
	"reflect"
	"testing"

	"hardtape/internal/oram"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// archetypeTxs builds one transaction of each Table I archetype the
// generator draws (workload.TxKind), in TxKind order, each from its own
// sender at nonce 0, so any subset forms a valid bundle.
func archetypeTxs(t *testing.T, w *workload.World) ([]string, []*types.Transaction) {
	t.Helper()
	specs := []struct {
		name  string
		to    types.Address
		value uint64
		data  []byte
		gas   uint64
	}{
		{"transfer", w.EOAs[8], 7, nil, 40_000},
		{"erc20-transfer", w.Tokens[0], 0, workload.CalldataTransfer(w.EOAs[9], 5), 120_000},
		{"erc20-balanceof", w.Tokens[1], 0, workload.CalldataBalanceOf(w.EOAs[2]), 80_000},
		{"dex-swap", w.DEXes[0], 0, workload.CalldataSwap(1000), 400_000},
		{"deep-call", w.DeepCallers[0], 0, workload.CalldataUint(3), 800_000},
		{"storage-heavy", w.StorageHeavy, 0, workload.CalldataUint(8), 500_000},
		{"memory-worker", w.MemWorkers[0], 0, workload.CalldataUint(4096), 2_000_000},
	}
	names := make([]string, len(specs))
	txs := make([]*types.Transaction, len(specs))
	for i, s := range specs {
		to := s.to
		tx, err := w.SignedTxAt(w.EOAs[i], 0, &to, s.value, s.data, s.gas)
		if err != nil {
			t.Fatal(err)
		}
		names[i], txs[i] = s.name, tx
	}
	return names, txs
}

// assertAccessesMatchQueries executes b on dev and requires the ORAM
// client's access count to move by exactly the queries the bundle
// result reports: every world-state query the model charges is one
// ORAM access on the wire, present or absent.
func assertAccessesMatchQueries(t *testing.T, name string, dev *Device, b *types.Bundle) {
	t.Helper()
	before := dev.ORAMStats().Accesses
	res, err := dev.Execute(b)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Aborted != nil {
		t.Fatalf("%s aborted: %v", name, res.Aborted)
	}
	if res.ORAMQueries == 0 {
		t.Fatalf("%s issued no ORAM queries", name)
	}
	if got := dev.ORAMStats().Accesses - before; got != res.ORAMQueries {
		t.Fatalf("%s: %d ORAM accesses, %d modeled queries", name, got, res.ORAMQueries)
	}
}

// TestORAMAccessesEqualQueries: under -ESO and -full, every Table I
// archetype alone on a sequential device, and all of them as one
// bundle on a 4-lane device, move the ORAM access counter by exactly
// BundleResult.ORAMQueries. Only completed bundles are checked: after
// an abort, lanes may run past the point the committer stopped at, and
// their ORAM accesses stay on the wire while the result's query log is
// cut at that point.
func TestORAMAccessesEqualQueries(t *testing.T) {
	for _, feat := range []Features{ConfigESO, ConfigFull} {
		t.Run(feat.Name(), func(t *testing.T) {
			r := newRig(t, laneWorld, config(feat, 1, 0), config(feat, 1, 4))
			names, txs := archetypeTxs(t, r.world)
			for i, tx := range txs {
				assertAccessesMatchQueries(t, names[i], r.devices[0], &types.Bundle{Txs: []*types.Transaction{tx}})
			}
			assertAccessesMatchQueries(t, "all archetypes, 4 lanes", r.devices[1], &types.Bundle{Txs: txs})
		})
	}
}

// TestAbsentReadsLookPresent is the leak check: a bundle whose
// transfers pay 9 existing accounts and one paying 9 accounts the state
// lacks give the server the same sequence of rounds and paths per
// round. A read the trusted dictionary answers "absent" is still one
// ORAM access.
func TestAbsentReadsLookPresent(t *testing.T) {
	for _, feat := range []Features{ConfigESO, ConfigFull} {
		t.Run(feat.Name(), func(t *testing.T) {
			r := newRig(t, worldShape{eoas: 18, tokens: 1}, config(feat, 1, 0))
			w, dev := r.world, r.device
			// rounds turns the observed path operations into paths per
			// round: a round is a run of path reads, then its writes.
			var events []oram.AccessEvent
			dev.ORAMServer().SetObserver(func(ev oram.AccessEvent) { events = append(events, ev) })
			rounds := func() []int {
				var out []int
				for i, ev := range events {
					if !ev.Write {
						if i == 0 || events[i-1].Write {
							out = append(out, 0)
						}
						out[len(out)-1]++
					}
				}
				events = nil
				return out
			}
			pay := func(recipient func(i int) types.Address) []int {
				b := &types.Bundle{}
				for i := 0; i < 9; i++ {
					to := recipient(i)
					tx, err := w.SignedTxAt(w.EOAs[i], 0, &to, 1, nil, 40_000)
					if err != nil {
						t.Fatal(err)
					}
					b.Txs = append(b.Txs, tx)
				}
				res, err := dev.Execute(b)
				if err != nil {
					t.Fatal(err)
				}
				if res.Aborted != nil {
					t.Fatal(res.Aborted)
				}
				return rounds()
			}
			present := pay(func(i int) types.Address { return w.EOAs[9+i] })
			absent := pay(func(i int) types.Address { return types.BytesToAddress([]byte(fmt.Sprintf("absent-%d", i))) })
			if len(present) == 0 || !reflect.DeepEqual(present, absent) {
				t.Fatalf("server-visible rounds differ:\npresent %v\nabsent  %v", present, absent)
			}
		})
	}
}
