package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a percentile is only reported when at
// least this many samples lie beyond it, so a "p99" never rests on one
// or two unlucky samples.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rank(q, n)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// rank is the 1-based nearest rank of quantile q among n samples,
// ceil(q·n), guarded against q·n landing a rounding error above an
// integer (0.999·10000 must be rank 9990, not 9991).
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tail is a tail-latency report under the percentile rule: the highest
// percentile up to the one asked for that has at least minBeyond
// samples beyond it, together with that count.
type tail struct {
	Pct    float64 // the percentile actually reported, e.g. 99; 0 when none qualifies
	Value  float64
	Beyond int // samples strictly past the reported rank
	N      int
}

// tailPercentiles is the ladder tailAt walks down, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailAt applies the percentile rule to sorted samples, asking for
// percentile want (e.g. 99). With too few samples for want it falls back
// down the ladder; with fewer than minBeyond samples past even the
// median it reports nothing (Pct 0).
func tailAt(sorted []float64, want float64) tail {
	return tailOf(len(sorted), want, func(r int) float64 { return sorted[r-1] })
}

// tailOf is the percentile rule over n samples whose r-th smallest
// (1-based) at returns.
func tailOf(n int, want float64, at func(r int) float64) tail {
	for _, p := range tailPercentiles {
		if p > want {
			continue
		}
		r := rank(p/100, n)
		if r < 1 {
			continue
		}
		if beyond := n - r; beyond >= minBeyond {
			return tail{Pct: p, Value: at(r), Beyond: beyond, N: n}
		}
	}
	return tail{N: n}
}

// weighted is a latency sample where many windows share one value —
// every score of one Scores frame is read at the same instant — kept as
// (value, count) pairs so a closed loop at hundreds of thousands of
// windows per second stores one entry per frame, not per window.
type weighted struct {
	v []float64
	n []int
}

func (s *weighted) add(v float64, n int) {
	if n > 0 {
		s.v = append(s.v, v)
		s.n = append(s.n, n)
	}
}

func (s *weighted) merge(o *weighted) {
	s.v = append(s.v, o.v...)
	s.n = append(s.n, o.n...)
}

// sorted returns the values ascending with cumulative counts.
func (s *weighted) sorted() (vals []float64, cum []int) {
	idx := make([]int, len(s.v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.v[idx[a]] < s.v[idx[b]] })
	vals = make([]float64, len(idx))
	cum = make([]int, len(idx))
	total := 0
	for i, j := range idx {
		total += s.n[j]
		vals[i], cum[i] = s.v[j], total
	}
	return vals, cum
}

// at returns the r-th smallest window's value (1-based).
func at(vals []float64, cum []int, r int) float64 {
	i := sort.SearchInts(cum, r)
	return vals[min(i, len(vals)-1)]
}

func (s *weighted) count() int {
	t := 0
	for _, n := range s.n {
		t += n
	}
	return t
}

// quantile is the nearest-rank q-quantile over windows.
func (s *weighted) quantile(q float64) float64 {
	n := s.count()
	if n == 0 {
		return 0
	}
	vals, cum := s.sorted()
	return at(vals, cum, max(1, rank(q, n)))
}

// tail is the percentile rule over windows.
func (s *weighted) tail(want float64) tail {
	vals, cum := s.sorted()
	n := 0
	if len(cum) > 0 {
		n = cum[len(cum)-1]
	}
	return tailOf(n, want, func(r int) float64 { return at(vals, cum, r) })
}

// mean over windows.
func (s *weighted) mean() float64 {
	t, n := 0.0, 0
	for i, v := range s.v {
		t += v * float64(s.n[i])
		n += s.n[i]
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (xs is not modified); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
