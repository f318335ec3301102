package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 5})
	want := []float64{2, 3.5, 3.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	if got := Spearman(x, y); !almost(got, 1, 1e-12) {
		t.Errorf("Spearman = %f, want 1", got)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if got := Spearman(x, rev); !almost(got, -1, 1e-12) {
		t.Errorf("Spearman = %f, want -1", got)
	}
	if got := Spearman(x, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("Spearman constant = %f", got)
	}
}

func TestSpearmanMonotoneInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + 0.5*rng.NormFloat64()
	}
	base := Spearman(x, y)
	// Monotone transform of x must not change rank correlation.
	tx := make([]float64, len(x))
	for i := range x {
		tx[i] = math.Exp(x[i])
	}
	if got := Spearman(tx, y); !almost(got, base, 1e-12) {
		t.Errorf("Spearman not rank-invariant: %f vs %f", got, base)
	}
}

// SpearmanSparse must agree with the dense implementation.
func TestSpearmanSparseAgreesWithDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := 50 + rng.Intn(200)
		x := make([]float64, total)
		y := make([]float64, total)
		totalPos := 0
		var nzV []float64
		var nzL []bool
		for i := 0; i < total; i++ {
			if rng.Float64() < 0.3 {
				x[i] = float64(1 + rng.Intn(5))
			}
			lbl := rng.Float64() < 0.25
			if lbl {
				y[i] = 1
				totalPos++
			}
			if x[i] != 0 {
				nzV = append(nzV, x[i])
				nzL = append(nzL, lbl)
			}
		}
		dense := Spearman(x, y)
		sparse := SpearmanSparse(nzV, nzL, total, totalPos)
		return almost(dense, sparse, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSpearmanSparseEdgeCases(t *testing.T) {
	if got := SpearmanSparse(nil, nil, 0, 0); got != 0 {
		t.Errorf("empty = %f", got)
	}
	if got := SpearmanSparse(nil, nil, 100, 10); got != 0 {
		t.Errorf("all-zero variable = %f", got)
	}
	// Variable present only in positives: strong positive correlation.
	vals := []float64{1, 1, 1, 1, 1}
	labels := []bool{true, true, true, true, true}
	got := SpearmanSparse(vals, labels, 100, 10)
	if got <= 0.3 {
		t.Errorf("positive-only feature SRC = %f, want strongly positive", got)
	}
}

func TestFitLinear(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2.1, 4.0, 6.1, 7.9, 10.1}
	fit := FitLinear(x, y)
	if !almost(fit.A, 2, 0.1) || !almost(fit.B, 0, 0.3) {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %f", fit.R2)
	}
}

func TestFitPower(t *testing.T) {
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = float64(i + 1)
		y[i] = 3 * math.Pow(x[i], 1.7)
	}
	fit := FitPower(x, y)
	if !almost(fit.A, 3, 0.05) || !almost(fit.B, 1.7, 0.02) || fit.R2 < 0.999 {
		t.Errorf("power fit = %+v", fit)
	}
}

func TestFitLog(t *testing.T) {
	x := make([]float64, 30)
	y := make([]float64, 30)
	for i := range x {
		x[i] = float64(i + 1)
		y[i] = 6.4*math.Log(x[i]) - 43.36
	}
	fit := FitLog(x, y)
	if !almost(fit.A, 6.4, 0.01) || !almost(fit.B, -43.36, 0.05) || fit.R2 < 0.999 {
		t.Errorf("log fit = %+v", fit)
	}
}

func TestFitDegenerate(t *testing.T) {
	if fit := FitLinear(nil, nil); fit.A != 0 || fit.B != 0 {
		t.Errorf("empty fit = %+v", fit)
	}
	fit := FitLinear([]float64{3, 3, 3}, []float64{1, 2, 3})
	if fit.A != 0 {
		t.Errorf("constant-x fit slope = %f", fit.A)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Errorf("summary = %+v", s)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Errorf("odd median = %f", odd.Median)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestCDF(t *testing.T) {
	vals := []float64{3, 1, 2, 5, 4}
	pts := CDF(vals, 5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].X != 1 || pts[len(pts)-1].X != 5 {
		t.Errorf("extremes = %v ... %v", pts[0], pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P < pts[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
	if pts[len(pts)-1].P != 1 {
		t.Errorf("final P = %f", pts[len(pts)-1].P)
	}
	if CDF(nil, 5) != nil {
		t.Error("empty CDF not nil")
	}
}

func TestSpearmanSparseIndicatorBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := 20 + rng.Intn(300)
		totalPos := rng.Intn(total + 1)
		m := rng.Intn(total + 1)
		labels := make([]bool, m)
		ones := make([]float64, m)
		for i := range labels {
			labels[i] = rng.Float64() < 0.3
			ones[i] = 1
		}
		general := SpearmanSparse(ones, labels, total, totalPos)
		fast := SpearmanSparseIndicator(labels, total, totalPos)
		// Bit-identical, not merely close: the indicator form performs
		// the same floating-point operations in the same order.
		return general == fast
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
