package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending sample: the
// smallest value with at least p of the sample at or below it. The
// benchmark keeps its own — obs.Quantile rounds where this takes the ceiling,
// and the figures must not move when the program under test changes its
// statistics.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p in n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCandidates are the percentiles a latency tail is reported at.
var tailCandidates = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.99999}

// tailPercentile picks the highest reportable percentile of n samples: the
// largest candidate that still has at least ten samples beyond it, so the
// figure is never one outlier. ok is false below 20 samples.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-rankOf(n, c) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (the
// exclusive method), so spreads computed here match the driver's.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
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

// sample is one metric's digest over a run's passes or windows.
type sample struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func digest(values []float64) sample {
	q1, med, q3 := quartiles(values)
	return sample{Median: med, Q1: q1, Q3: q3, N: len(values)}
}

// spread is the inter-quartile distance as a share of the median.
func (s sample) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
