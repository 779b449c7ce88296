package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an ascending
// sample. ok is false when fewer than ten samples lie beyond the returned
// rank: a tail percentile with less evidence than that does not repeat from
// run to run, so callers report it as not available instead.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= 10
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (position i·(n+1)/4, linear interpolation, clamped to
// the sample) — the method of Python's statistics.quantiles(n=4), which is
// what judges this benchmark's run-to-run spread. xs is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// median is the middle of xs (mean of the two middle values for even n).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// fastDecile is the estimator of every timing metric: the 10th percentile of
// a "lower is better" sample (the 90th of a "higher is better" one), nearest
// rank — the minimum when there are fewer than eleven samples. The box this
// benchmark runs on is shared: other tenants slow whole seconds of a run by
// 20–40 %, so the median over segments does not repeat from run to run, while
// the fast tail does, because interference only ever adds time.
func fastDecile(xs []float64, higherBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs) // best first
	if higherBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	return s[int(math.Ceil(0.1*float64(len(s))))-1]
}

// iqrPct is the interquartile range of xs as a percentage of its median.
func iqrPct(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return 100 * (q3 - q1) / math.Abs(m)
}

// sortedCopy returns xs ascending without touching the original.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// topShare is the share of sum(xs) contributed by the largest frac of the
// samples (at least one) — how mean-dominated a latency distribution is.
func topShare(sorted []float64, frac float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	var total, top float64
	for i, v := range sorted {
		total += v
		if i >= n-k {
			top += v
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}
