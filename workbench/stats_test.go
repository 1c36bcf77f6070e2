package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{1000, 0.9, 900, true},
		{1000, 0.99, 990, true},
		{1000, 0.995, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1, 2, 4) = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestReservoirKeepsFixedMemoryAndEveryValueUntilFull(t *testing.T) {
	r := newReservoir(100, 1)
	for i := 1; i <= 100; i++ {
		r.add(float64(i))
	}
	if s := r.sorted(); len(s) != 100 || s[0] != 1 || s[99] != 100 {
		t.Fatalf("under capacity the reservoir must hold every value")
	}
	for i := 101; i <= 100_000; i++ {
		r.add(float64(i))
	}
	if len(r.xs) != 100 || cap(r.xs) != 100 || r.seen != 100_000 {
		t.Fatalf("len %d cap %d seen %d; want 100, 100, 100000", len(r.xs), cap(r.xs), r.seen)
	}
	// A uniform sample of 1..100000 has its median near 50000.
	if m := median(r.xs); math.Abs(m-50_000) > 15_000 {
		t.Errorf("reservoir median %v is far from the population's 50000", m)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 30, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

func TestVerdictAgainstBound(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	for _, c := range []struct {
		d    metricDef
		base []float64
		cur  []float64
		want string
	}{
		{lower, base, scaled(1.05), "ok"},
		{lower, base, scaled(1.2), "REGRESSED"},
		{lower, base, scaled(0.5), "ok"},
		{higher, base, scaled(0.8), "REGRESSED"},
		{higher, base, scaled(1.2), "ok"},
		{lower, []float64{50, 150, 100, 60, 140}, scaled(1.2), "unresolved"},
	} {
		if got := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("verdict(%s, cur/base %.2f) = %s, want %s", c.d.Name, median(c.cur)/median(c.base), got, c.want)
		}
	}
}
