package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles, with the sample count the
// numbers rest on.
type summary struct {
	N              int
	Q1, Median, Q3 float64
}

// summarize returns the quartiles of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads printed here match what an external check computes from the same
// values. A single value is its own median and quartiles; no values give
// NaN.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	switch len(xs) {
	case 0:
		s.Q1, s.Median, s.Q3 = math.NaN(), math.NaN(), math.NaN()
		return s
	case 1:
		s.Q1, s.Median, s.Q3 = xs[0], xs[0], xs[0]
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Q1 = exclusiveQuantile(sorted, 1, 4)
	s.Median = percentile(sorted, 50)
	s.Q3 = exclusiveQuantile(sorted, 3, 4)
	return s
}

// spread is the interquartile range as a share of the median: the number a
// metric's regression bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// exclusiveQuantile is the i-th of n cut points of sorted data (at least two
// values), transcribed from statistics.quantiles: position i(N+1)/n, clamped
// to the interior, interpolated in exact integer steps.
func exclusiveQuantile(sorted []float64, i, n int) float64 {
	ld := len(sorted)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / float64(n)
}

// percentile interpolates linearly between closest ranks of sorted data (p
// in [0, 100]); the 50th percentile is the usual median.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle value of xs (NaN when empty).
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentile(sorted, 50)
}
