package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted, and false
// when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// median of xs (the mean of the middle pair for an even count); 0 for
// none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// method as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads read the same as in other tools. Fewer than two
// values give that value twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// reservoir keeps a uniform random sample of at most cap(xs) of the
// values offered to it, in memory allocated up front.
type reservoir struct {
	xs   []float64
	seen int
	rng  *rand.Rand
}

func newReservoir(size int, seed uint64) *reservoir {
	return &reservoir{xs: make([]float64, 0, size), rng: newRand(seed, streamReservoir)}
}

func (r *reservoir) add(x float64) {
	r.seen++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, x)
	} else if k := r.rng.IntN(r.seen); k < len(r.xs) {
		r.xs[k] = x
	}
}

// sorted returns a sorted copy of the sample.
func (r *reservoir) sorted() []float64 {
	s := append([]float64(nil), r.xs...)
	sort.Float64s(s)
	return s
}
