package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile (p in (0,100]) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median is the 50th percentile of an unsorted slice.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it — a p99 of 300 samples would be read
// off three points.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method) — the
// rule the acceptance check for this benchmark applies. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median; 0 when there are too few values to tell.
func iqrSpread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// ladderDeltas turns rung medians (bottom rung first) into per-layer
// costs: the first entry is the bottom rung itself and every later one
// the difference to the rung below, so the entries sum to the top rung
// by construction.
func ladderDeltas(rungMedians []float64) []float64 {
	out := make([]float64, len(rungMedians))
	prev := 0.0
	for i, m := range rungMedians {
		out[i] = m - prev
		prev = m
	}
	return out
}

// negativeRungs counts deltas below −5 % of the top rung: a layer that
// "costs" that much less than nothing means the rungs were not
// measured under the same conditions.
func negativeRungs(deltas []float64) int {
	if len(deltas) == 0 {
		return 0
	}
	top := 0.0
	for _, d := range deltas {
		top += d
	}
	n := 0
	for _, d := range deltas {
		if d < -0.05*top {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// inUnits converts durations to floats counted in unit (ms, µs).
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// sampler polls read on its own goroutine every interval until stopped.
type sampler struct {
	done    chan struct{}
	samples chan []float64
}

func startSampler(every time.Duration, read func() float64) *sampler {
	s := &sampler{done: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		xs := []float64{read()}
		for {
			select {
			case <-s.done:
				s.samples <- xs
				return
			case <-tick.C:
				xs = append(xs, read())
			}
		}
	}()
	return s
}

// stop ends the polling and returns what was read.
func (s *sampler) stop() []float64 {
	close(s.done)
	return <-s.samples
}
