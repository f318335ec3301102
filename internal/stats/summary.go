package stats

import (
	"fmt"
	"sort"
)

// Summary describes a sample distribution (the Min/Mean/Median/Max boxes
// the paper annotates on its CDF figures).
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
}

// Summarize computes a Summary; the zero Summary for empty input.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{N: len(values), Min: values[0], Max: values[0]}
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f mean=%.2f median=%.2f max=%.2f",
		s.N, s.Min, s.Mean, s.Median, s.Max)
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns the empirical CDF sampled at up to points positions (evenly
// spaced ranks), always including the extremes.
func CDF(values []float64, points int) []CDFPoint {
	if len(values) == 0 || points <= 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if points > len(sorted) {
		points = len(sorted)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		rank := i * (len(sorted) - 1) / max(points-1, 1)
		out = append(out, CDFPoint{
			X: sorted[rank],
			P: float64(rank+1) / float64(len(sorted)),
		})
	}
	return out
}
