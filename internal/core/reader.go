package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hardtape/internal/hevm"
	"hardtape/internal/pager"
	"hardtape/internal/state"
	"hardtape/internal/types"
)

// hvReader is the Hypervisor's world-state query path: the backing
// Reader behind a bundle's overlay. Reads flow
//
//	L1 world-state cache → page store (ORAM or prefetched local),
//
// with a Hypervisor exception charged on every L1 miss (paper step 5)
// and the code prefetcher notified on every real ORAM query (§IV-D).
//
// hvReader panics with a wrapped error on backend failures — the
// executor converts this into a bundle failure, matching the hardware
// behaviour of halting the HEVM on an unrecoverable exception.
type hvReader struct {
	dev  *Device
	lane *laneState
	// ctx is the bundle's context; a traced bundle's ORAM rounds parent
	// under its span.
	ctx context.Context
	// kvStore serves account meta and storage records.
	kvStore *pager.Store
	// codeStore serves code pages; codeMirror provides the bytes when
	// ORAM traffic is spread by the prefetcher (see DESIGN.md).
	codeStore  *pager.Store
	codeMirror *pager.Store
	// kvORAM/codeORAM mark whether each store crosses the ORAM.
	kvORAM, codeORAM bool
}

var _ state.Reader = (*hvReader)(nil)

// chargeQuery advances the lane clock for one page fetch and drains
// any due prefetches first.
func (r *hvReader) chargeQuery(oramBacked bool) {
	r.chargeQueryKind(oramBacked, 'k')
}

func (r *hvReader) chargeQueryKind(oramBacked bool, kind byte) {
	if oramBacked {
		r.drainPrefetch()
		r.lane.prefetcher.NotifyQuery(r.lane.clock.Now())
		r.recordORAMQuery(kind)
		return
	}
	// Prefetched-to-untrusted-memory path: one A.E.DMA page move.
	r.lane.clock.Advance(r.dev.cfg.Calibration.L3SwapPerPage)
}

// recordORAMQuery logs one real ORAM query at the current virtual time
// and charges its link-RTT + server cost — the single bookkeeping site
// for every query the adversary observes.
func (r *hvReader) recordORAMQuery(kind byte) {
	r.recordORAMBatch(kind, 1)
}

// recordORAMBatch logs n queries issued together in one batched
// message and charges them as OVERLAPPED virtual time: the 2 ms link
// round trip is paid once for the whole batch, server processing
// serially per query within a shard but in parallel across shards
// (simclock.Calibration.ORAMShardedBatchCost — with one shard this is
// exactly ORAMBatchCost). All n queries share one timestamp — on the
// wire they leave back to back.
func (r *hvReader) recordORAMBatch(kind byte, n int) {
	now := r.lane.clock.Now()
	for i := 0; i < n; i++ {
		r.lane.queryTimes = append(r.lane.queryTimes, now)
		r.lane.queryKinds = append(r.lane.queryKinds, kind)
	}
	r.lane.clock.Advance(r.dev.cfg.Calibration.ORAMShardedBatchCost(n, r.dev.cfg.ORAMShardCount(), 0))
	r.lane.oramQueries += uint64(n)
}

// drainPrefetch issues at most ONE code prefetch whose randomized
// interval timer has expired (a real ORAM access whose data is
// discarded). One per real query is the paper's design: "we insert a
// prefetch query in the middle of every two original queries" — a
// loop here would burst the queue and recreate the very pattern the
// prefetcher exists to hide.
func (r *hvReader) drainPrefetch() {
	if !r.codeORAM {
		return
	}
	ref, ok := r.lane.prefetcher.PopDue(r.lane.clock.Now())
	if !ok {
		return
	}
	if _, err := r.codeStore.ReadCodePage(ref.CodeHash, ref.Index); err != nil &&
		!errors.Is(err, pager.ErrPageNotFound) {
		panic(fmt.Errorf("core: prefetch page %d: %w", ref.Index, err))
	}
	r.recordORAMQuery('c')
}

// Account implements state.Reader via the account-meta page. The
// bundle-local memo answers every query after the first — found or
// absent — on-chip: each transaction runs on a fresh overlay, so
// without it a bundle would re-fetch its sender once per transaction.
func (r *hvReader) Account(addr types.Address) (*types.Account, bool) {
	meta, seen := r.lane.acctCache[addr]
	if !seen {
		r.chargeQuery(r.kvORAM)
		var err error
		meta, err = r.kvStore.ReadAccountMeta(addr)
		switch {
		case err == nil:
			r.dev.registerCodeLen(meta.CodeHash, meta.CodeLen)
		case errors.Is(err, pager.ErrPageNotFound):
			meta = nil // absent accounts are memoized too
		default:
			panic(fmt.Errorf("core: account %s: %w", addr, err))
		}
		r.lane.acctCache[addr] = meta
	}
	if meta == nil {
		return nil, false
	}
	return &types.Account{
		Nonce:    meta.Nonce,
		Balance:  meta.Balance.Clone(),
		CodeHash: meta.CodeHash,
	}, true
}

// Storage implements state.Reader with the L1 world-state cache in
// front of the page store.
func (r *hvReader) Storage(addr types.Address, slot types.Hash) types.Hash {
	ck := hevm.WSCacheKey{Addr: addr, Key: slot}
	if v, ok := r.lane.wsCache.Get(ck); ok {
		// L1 hit: same-cycle, no exception.
		return types.Hash(v)
	}
	r.chargeQuery(r.kvORAM)
	val, _, err := r.kvStore.ReadStorageRecord(addr, slot)
	if err != nil {
		panic(fmt.Errorf("core: storage %s/%s: %w", addr, slot, err))
	}
	r.lane.wsCache.Put(ck, val)
	return val
}

// Code implements state.Reader. With ORAM-backed code, page 0 is
// fetched obliviously now and the tail pages are queued on the
// prefetcher's randomized interval timer; the bytes executed come from
// the trusted-side mirror (simulation note in DESIGN.md — the
// adversary-visible ORAM sequence is the faithful artifact).
func (r *hvReader) Code(codeHash types.Hash) []byte {
	if codeHash == types.EmptyCodeHash || codeHash.IsZero() {
		return nil
	}
	// Bundle-local code cache: repeated calls to the same contract find
	// the code on-chip (paper §VI-C's warm case).
	if code, ok := r.lane.codeCache[codeHash]; ok {
		return code
	}
	codeLen, ok := r.dev.codeLen(codeHash)
	if !ok {
		return nil
	}
	if r.codeORAM {
		r.chargeQueryKind(true, 'c')
		if _, err := r.codeStore.ReadCodePage(codeHash, 0); err != nil &&
			!errors.Is(err, pager.ErrPageNotFound) {
			panic(fmt.Errorf("core: code page 0 of %s: %w", codeHash, err))
		}
		if r.dev.cfg.DisablePrefetch {
			// Ablation: burst-fetch all remaining pages immediately —
			// the distinguishable pattern §IV-D problem 3 warns about.
			// The burst rides the batched ORAM path: one multi-path
			// message (and one overlapped RTT) instead of one blocking
			// round trip per page.
			if n := pager.CodePages(codeLen); n > 1 {
				indices := make([]uint32, 0, n-1)
				for i := uint32(1); i < n; i++ {
					indices = append(indices, i)
				}
				if _, err := r.codeStore.ReadCodePages(r.ctx, codeHash, indices); err != nil {
					panic(fmt.Errorf("core: code pages of %s: %w", codeHash, err))
				}
				r.recordORAMBatch('c', len(indices))
			}
		} else {
			r.lane.prefetcher.QueueCode(codeHash, codeLen)
		}
		code, err := r.codeMirror.ReadCode(codeHash, codeLen)
		if err != nil {
			panic(fmt.Errorf("core: code mirror %s: %w", codeHash, err))
		}
		r.lane.codeCache[codeHash] = code
		return code
	}
	// Local path: every page is one untrusted-memory move.
	pages := pager.CodePages(codeLen)
	r.lane.clock.Advance(time.Duration(pages) * r.dev.cfg.Calibration.L3SwapPerPage)
	code, err := r.codeStore.ReadCode(codeHash, codeLen)
	if err != nil {
		panic(fmt.Errorf("core: code %s: %w", codeHash, err))
	}
	r.lane.codeCache[codeHash] = code
	return code
}

// newReader wires the reader one lane executes against, charging that
// lane's clock and caches. ctx is the bundle's execution context: the
// ORAM rounds the reader issues are attributed to it.
func (d *Device) newReader(ctx context.Context, l *laneState) state.Reader {
	r := &hvReader{dev: d, lane: l, ctx: ctx}
	if d.cfg.Features.ORAMStorage {
		r.kvStore, r.kvORAM = d.oramStore, true
	} else {
		r.kvStore = d.mirror
	}
	if d.cfg.Features.ORAMCode {
		r.codeStore, r.codeORAM = d.oramStore, true
		r.codeMirror = d.mirror
	} else {
		r.codeStore = d.mirror
		r.codeMirror = d.mirror
	}
	return r
}
