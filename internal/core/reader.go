package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hardtape/internal/evm"
	"hardtape/internal/hevm"
	"hardtape/internal/pager"
	"hardtape/internal/simclock"
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
// A backend failure halts the transaction (evm.Halt) — the hardware
// halts the HEVM on an unrecoverable exception — and the executor
// turns the halt into a bundle failure wrapping ErrAborted. The halt
// names the kind of read and carries the backend's error, never the
// address, slot, code hash or page read: its text reaches error spans
// the SP can scrape.
type hvReader struct {
	dev  *Device
	lane *laneState
	// ctx is the bundle's context; a traced bundle's ORAM rounds parent
	// under its span.
	ctx context.Context
	// codeLens and the placement's stores are the last Sync's.
	codeLens map[types.Hash]uint32
	placement
}

var _ state.Reader = (*hvReader)(nil)

// recordORAMBatch is the reader's one ORAM charge site: n real queries
// of one kind leave in one batched message. First, at most ONE code
// prefetch whose randomized interval timer has expired goes out as its
// own query (a real ORAM access whose data is discarded). One per real
// query is the paper's design: "we insert a prefetch query in the
// middle of every two original queries" — a loop here would burst the
// queue and recreate the very pattern the prefetcher exists to hide.
// The prefetcher then learns of the real query, and the queries are
// logged and charged (logQueries).
func (r *hvReader) recordORAMBatch(kind byte, n int) {
	if ref, ok := r.lane.prefetcher.PopDue(r.lane.clock.Now()); ok {
		if _, err := r.codeORAM.ReadCodePage(r.ctx, ref.CodeHash, ref.Index); err != nil &&
			!errors.Is(err, pager.ErrPageNotFound) {
			halt("prefetch", err)
		}
		r.logQueries('c', 1)
	}
	r.lane.prefetcher.NotifyQuery(r.lane.clock.Now())
	r.logQueries(kind, n)
}

// logQueries logs n queries issued together in one message at the
// current virtual time and charges them as one ORAM round
// (simclock.Calibration.ORAMBatchCost): the 2 ms link round trip once
// for the whole message, and server processing serially per query on
// the busiest of the K shards, which a uniform block→shard hash gives
// ⌈n/K⌉ queries. All n queries share one timestamp — on the wire they
// leave back to back.
func (r *hvReader) logQueries(kind byte, n int) {
	now := r.lane.clock.Now()
	for i := 0; i < n; i++ {
		r.lane.queryTimes = append(r.lane.queryTimes, now)
		r.lane.queryKinds = append(r.lane.queryKinds, kind)
	}
	k := r.dev.cfg.ORAMShardCount()
	r.lane.clock.Advance(simclock.DefaultCalibration().ORAMBatchCost((n+k-1)/k, 0))
}

// movePages charges n pages fetched from prefetched untrusted memory:
// one A.E.DMA page move each.
func (r *hvReader) movePages(n uint32) {
	r.lane.clock.Advance(time.Duration(n) * simclock.DefaultCalibration().L3SwapPerPage)
}

// Account implements state.Reader via the account-meta page. The
// bundle-local memo answers every query after the first — found or
// absent — on-chip: each transaction runs on a fresh overlay, so
// without it a bundle would re-fetch its sender once per transaction.
func (r *hvReader) Account(addr types.Address) (*types.Account, bool) {
	meta, seen := r.lane.acctCache[addr]
	if !seen {
		if r.kvORAM {
			r.recordORAMBatch('k', 1)
		} else {
			r.movePages(1)
		}
		var err error
		meta, err = r.kv.ReadAccountMeta(r.ctx, addr)
		switch {
		case err == nil:
		case errors.Is(err, pager.ErrPageNotFound):
			meta = nil // absent accounts are memoized too
		default:
			halt("account", err)
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
	if r.kvORAM {
		r.recordORAMBatch('k', 1)
	} else {
		r.movePages(1)
	}
	val, _, err := r.kv.ReadStorageRecord(r.ctx, addr, slot)
	if err != nil {
		halt("storage", err)
	}
	r.lane.wsCache.Put(ck, val)
	return val
}

// Code implements state.Reader. With ORAM-backed code, page 0 is
// fetched obliviously now and the tail pages are queued on the
// prefetcher's randomized interval timer; the bytes executed come from
// the plain store either way (DESIGN.md §8 — the
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
	codeLen, ok := r.codeLens[codeHash]
	if !ok {
		return nil
	}
	if r.codeORAM != nil {
		r.recordORAMBatch('c', 1)
		if _, err := r.codeORAM.ReadCodePage(r.ctx, codeHash, 0); err != nil &&
			!errors.Is(err, pager.ErrPageNotFound) {
			halt("code page", err)
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
				if _, err := r.codeORAM.ReadCodePages(r.ctx, codeHash, indices); err != nil {
					halt("code page", err)
				}
				r.recordORAMBatch('c', len(indices))
			}
		} else {
			r.lane.prefetcher.QueueCode(codeHash, codeLen)
		}
	} else {
		// Local path: every page is one untrusted-memory move.
		r.movePages(pager.CodePages(codeLen))
	}
	code, err := r.code.ReadCode(r.ctx, codeHash, codeLen)
	if err != nil {
		halt("code", err)
	}
	r.lane.codeCache[codeHash] = code
	return code
}

// halt stops the transaction on a failed read of the given kind.
func halt(kind string, err error) {
	evm.Halt(fmt.Errorf("core: %s read: %w", kind, err))
}

// newReader wires the reader one lane executes against, charging that
// lane's clock and caches. ctx is the bundle's execution context: the
// ORAM rounds the reader issues are attributed to it.
func (d *Device) newReader(ctx context.Context, l *laneState) state.Reader {
	return &hvReader{dev: d, lane: l, ctx: ctx, codeLens: d.pages.codeLens, placement: d.pages.place(d.cfg.Features)}
}
