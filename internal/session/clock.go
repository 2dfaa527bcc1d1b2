package session

import (
	"sync"
	"time"
)

// Clock abstracts wall time so ticket expiry is deterministic under
// test (the same injected-clock discipline internal/simclock applies
// to virtual device time).
// Implementations must be safe for concurrent use.
type Clock interface {
	Now() time.Time
}

// EpochLength is the granularity of ticket expiry. Epochs
// coarsen timestamps so a ticket does not leak a fine-grained issue
// time, and so expiry checks are a single integer compare.
const EpochLength = time.Minute

// EpochAt converts a wall time to its epoch number.
func EpochAt(t time.Time) uint64 {
	s := t.Unix()
	if s < 0 {
		return 0
	}
	return uint64(s) / uint64(EpochLength/time.Second)
}

// systemClock reads the real wall clock.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// SystemClock returns the production clock.
func SystemClock() Clock { return systemClock{} }

// FakeClock is a settable clock for deterministic expiry tests.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// AdvanceEpochs moves the clock forward by n expiry epochs.
func (c *FakeClock) AdvanceEpochs(n uint64) {
	c.Advance(time.Duration(n) * EpochLength)
}
