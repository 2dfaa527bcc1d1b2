package pager

import (
	"time"

	"hardtape/internal/drbg"
	"hardtape/internal/types"
)

// CodeRef identifies one code page awaiting prefetch.
type CodeRef struct {
	CodeHash types.Hash
	Index    uint32
}

// Prefetcher implements the paper's pagewise code prefetching
// (§IV-D problem 3): instead of bursting all code pages of a frame at
// once — which would distinguish Code queries from sporadic storage
// queries — code pages are issued one at a time on a randomized
// interval timer of roughly half the average gap between real
// queries. The adversary then observes an approximately uniform query
// cadence regardless of type.
type Prefetcher struct {
	queue []CodeRef
	// avgGap is the exponentially weighted average between real
	// queries (virtual time).
	avgGap time.Duration
	// lastQuery is the virtual time of the previous real query.
	lastQuery time.Duration
	seenQuery bool
	// nextDue is the virtual deadline of the interval timer.
	nextDue time.Duration
	// rng, this prefetcher's alone, draws the interval timer.
	rng *drbg.Rand
}

// PrefetchLabel names the interval-timer stream (drbg).
const PrefetchLabel = "hardtape-prefetch-v1"

// NewPrefetcher returns an idle prefetcher drawing its interval timer
// from r.
func NewPrefetcher(r *drbg.Rand) *Prefetcher {
	return &Prefetcher{rng: r}
}

// QueueCode enqueues all pages of a contract for background prefetch.
// The first page is NOT queued: the Hypervisor fetches it immediately
// so execution can start (it is indistinguishable from a K-V query
// anyway, since responses are fixed-size).
func (p *Prefetcher) QueueCode(codeHash types.Hash, codeLen uint32) {
	for i := uint32(1); i < CodePages(codeLen); i++ {
		p.queue = append(p.queue, CodeRef{CodeHash: codeHash, Index: i})
	}
}

// Pending returns the number of queued pages.
func (p *Prefetcher) Pending() int { return len(p.queue) }

// NotifyQuery records a real world-state query at virtual time now,
// updating the average gap and re-arming the interval timer to a
// random value around half the average gap.
func (p *Prefetcher) NotifyQuery(now time.Duration) {
	if p.seenQuery {
		gap := now - p.lastQuery
		if gap < 0 {
			gap = 0
		}
		if p.avgGap == 0 {
			p.avgGap = gap
		} else {
			// EWMA with alpha = 1/8.
			p.avgGap += (gap - p.avgGap) / 8
		}
	}
	p.seenQuery = true
	p.lastQuery = now
	p.arm(now)
}

// arm sets the next deadline to now + U(¼·avg, ¾·avg), i.e. about half
// the average gap.
func (p *Prefetcher) arm(now time.Duration) {
	base := p.avgGap / 4
	span := p.avgGap / 2
	if span <= 0 {
		// No gap estimate yet: fire on the next poll.
		p.nextDue = now
		return
	}
	p.nextDue = now + base + time.Duration(p.rng.Uint64n(uint64(span)))
}

// PopDue returns the next code page to prefetch if the interval timer
// has expired and pages are pending. After a pop the timer re-arms.
func (p *Prefetcher) PopDue(now time.Duration) (CodeRef, bool) {
	if len(p.queue) == 0 || (p.seenQuery && now < p.nextDue) {
		return CodeRef{}, false
	}
	ref := p.queue[0]
	p.queue = p.queue[1:]
	p.arm(now)
	return ref, true
}

// Reset clears all prefetcher state (bundle release, step 10).
// The generator is not reset: its stream runs on across bundles.
func (p *Prefetcher) Reset() { *p = Prefetcher{rng: p.rng} }
