package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Reference values from Python: statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.N != len(c.xs) {
			t.Errorf("%v: N = %d, want %d", c.xs, s.N, len(c.xs))
		}
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
	}
}

func TestSummarizeSmallSamples(t *testing.T) {
	if s := summarize(nil); s.N != 0 || !math.IsNaN(s.Median) {
		t.Errorf("empty sample: %+v", s)
	}
	if s := summarize([]float64{7}); s.N != 1 || s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Errorf("one value: %+v", s)
	}
}

func TestSpread(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got, want := s.spread(), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := summarize([]float64{-1, 1}).spread(); !math.IsInf(got, 1) {
		t.Errorf("zero median spread = %v, want +Inf", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}
