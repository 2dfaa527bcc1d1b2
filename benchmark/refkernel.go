package main

import (
	"math/big"
	"runtime"
	"sort"
	"time"
)

// The reference kernel is how the benchmark tells the program's speed
// from the machine's. The box this runs on is a few cores of a shared
// host whose speed for allocation-heavy code wanders by 25–40 % over
// minutes (pure ALU code barely moves), so a run's wall-clock numbers
// say as much about the neighbours as about the code: consecutive 20 s
// runs of one binary spread 24–48 % in a bad hour, and neither longer
// runs nor medians over windows help, because a whole run sits inside
// one slow spell.
//
// The kernel is a fixed piece of harness-owned work of the same
// character as the system's hot paths (256-bit math/big modular
// arithmetic, every result freshly allocated). It shares no code with
// the program under test, so no change to the program can speed it up.
// Every closed-loop client runs slices of it between its requests, for
// refShare of the time it spends in requests, and the run's timing
// metrics are scaled by the slices' slowdown against refNominal. Of
// the kernels tried on recorded runs of all four workloads (this one,
// small-object allocation, 1 MiB copies, a SHA-256 chain, and their
// sums) it tracked best: scaled numbers spread 1–7 % where the wall
// clock spread 4–48 %. The SHA-256 chain did not track at all.

const (
	refModMuls = 400
	// refNominal is the slice time that counts as machine speed 1: what
	// a slice takes on this box in a quiet spell. Only ratios between
	// runs matter, so the constant's exact value does not.
	refNominal = 220 * time.Microsecond
	// refShare is the time a client spends in slices per unit of time it
	// spends in requests.
	refShare = 0.05
	// refTrim is the share of slowest slices left out of the mean: a
	// slice that was descheduled half-way measured the scheduler.
	refTrim = 0.10
)

var (
	refP, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f", 16)
	refX, _ = new(big.Int).SetString("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798", 16)
)

// refClock runs and times reference slices for one goroutine.
type refClock struct {
	acc    *big.Int
	slices []time.Duration
}

func newRefClock() *refClock { return &refClock{} }

// slice runs the kernel once and records how long it took.
func (c *refClock) slice() time.Duration {
	start := time.Now()
	acc := new(big.Int).Set(refX)
	for i := 0; i < refModMuls; i++ {
		sq := new(big.Int).Mul(acc, acc)
		sq.Mod(sq, refP)
		sum := new(big.Int).Add(sq, refX)
		acc = sum.Mod(sum, refP)
	}
	c.acc = acc
	d := time.Since(start)
	c.slices = append(c.slices, d)
	return d
}

// run runs slices for at least d, and at least one.
func (c *refClock) run(d time.Duration) {
	for used := c.slice(); used < d; {
		used += c.slice()
	}
}

// after runs the slices that go with a request that took lat.
func (c *refClock) after(lat time.Duration) {
	c.run(time.Duration(refShare * float64(lat)))
}

// take returns the slices recorded so far and forgets them.
func (c *refClock) take() []time.Duration {
	out := c.slices
	c.slices = nil
	return out
}

// slowdown is the machine's slowdown over a set of slices: the mean of
// all but the slowest refTrim of them, over refNominal. 1 with no
// slices.
func slowdown(slices []time.Duration) float64 {
	if len(slices) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), slices...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	keep := len(s) - int(refTrim*float64(len(s)))
	var sum time.Duration
	for _, d := range s[:keep] {
		sum += d
	}
	return float64(sum) / float64(keep) / float64(refNominal)
}

// refScale is what a timing is divided by to bring it to reference
// machine speed: share is the part of the measured time that slows with
// the kernel (workloadSpec.RefShare), the rest is taken as independent
// of the machine's state.
func refScale(slow, share float64) float64 { return 1 + share*(slow-1) }

// refSliceAllocs measures what one slice allocates (objects, bytes), so
// a phase's allocation figures can leave the kernel's share out. The
// kernel's work is fixed, so its allocations are too.
func refSliceAllocs() (objects, bytes float64) {
	const n = 64
	c := newRefClock()
	c.slices = make([]time.Duration, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.slice()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}
