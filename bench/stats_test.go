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

func TestPercentileNearestRank(t *testing.T) {
	// 1..100: nearest rank of p is ceil(100p), so p50 = 50, p99 = 99.
	xs := seq(100)
	for _, tc := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{0.50, 50, true},  // 50 samples beyond
		{0.90, 90, true},  // exactly 10 beyond
		{0.91, 91, false}, // 9 beyond: not enough evidence
		{0.99, 99, false},
		{1.00, 100, false},
	} {
		v, ok := percentile(xs, tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..100, %g) = %g, %v; want %g, %v", tc.p, v, ok, tc.want, tc.ok)
		}
	}
	// p99 needs 1000 samples before ten lie beyond it; p999 needs 10 000.
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(seq(10000), 0.999); !ok || v != 9990 {
		t.Errorf("p999 of 1..10000 = %g, %v; want 9990, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported as supported")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, %g; want 2.75, 5.5, 8.25", q1, med, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	q1, med, q3 = quartiles([]float64{30, 10, 20})
	if q1 != 10 || med != 20 || q3 != 30 {
		t.Errorf("quartiles(10,20,30) = %g, %g, %g; want 10, 20, 30", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g, %g; want 1.5, 4, 12", q1, med, q3)
	}
	if got := iqrPct([]float64{1, 2, 4, 8, 16}); math.Abs(got-262.5) > 1e-9 {
		t.Errorf("iqrPct = %g, want 262.5", got)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median of an even sample is not the mean of the middle two")
	}
}

func TestFastDecile(t *testing.T) {
	// Fewer than eleven samples: the best one.
	if got := fastDecile([]float64{5, 3, 9}, false); got != 3 {
		t.Errorf("fastDecile(lower) = %g, want 3", got)
	}
	if got := fastDecile([]float64{5, 3, 9}, true); got != 9 {
		t.Errorf("fastDecile(higher) = %g, want 9", got)
	}
	// 1..100: 10th from the fast end.
	if got := fastDecile(seq(100), false); got != 10 {
		t.Errorf("fastDecile(1..100, lower) = %g, want 10", got)
	}
	if got := fastDecile(seq(100), true); got != 91 {
		t.Errorf("fastDecile(1..100, higher) = %g, want 91", got)
	}
}

func TestTopShare(t *testing.T) {
	// 99 samples of 1 and one of 901: the slowest 1 % holds 90.1 % of the time.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[99] = 901
	if got := topShare(xs, 0.01); math.Abs(got-0.901) > 1e-12 {
		t.Errorf("topShare = %g, want 0.901", got)
	}
}
