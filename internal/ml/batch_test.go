package ml

import (
	"math"
	"math/rand"
	"testing"
)

// TestScoreMatchesTreeWalk holds Score, which walks four trees per step, to
// the tree-by-tree loop it replaced, bit for bit: forests whose tree counts
// leave every remainder after the groups of four, on random vectors and the
// all-zero and all-one vectors.
func TestScoreMatchesTreeWalk(t *testing.T) {
	const features = 120
	d := syntheticDataset(700, features, 7)
	rng := rand.New(rand.NewSource(9))
	zero, one := NewVector(features), NewVector(features)
	for f := range features {
		one.Set(f)
	}
	xs := []Vector{zero, one}
	for range 1000 {
		v := NewVector(features)
		for f := range features {
			if rng.Intn(2) == 0 {
				v.Set(f)
			}
		}
		xs = append(xs, v)
	}
	for _, trees := range []int{1, 3, 4, 5, 120} {
		rf := NewRandomForest(ForestConfig{Trees: trees, MaxDepth: 12, Seed: int64(trees)})
		if err := rf.Train(d); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			sum := 0.0
			for _, tree := range rf.trees {
				sum += tree.prob(x)
			}
			want := sum/float64(len(rf.trees)) - 0.5
			if got := rf.Score(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d trees, vector %d: Score %v, tree-by-tree %v", trees, i, got, want)
			}
		}
	}
}

// TestScoreBatchBitIdentical is batch inference's core contract: every
// ScoreBatch output equals Score on the same row, bit for bit, across
// chunk boundaries (the block is larger than scoreBatchChunk).
func TestScoreBatchBitIdentical(t *testing.T) {
	d := syntheticDataset(700, 120, 7)
	rf := NewRandomForest(ForestConfig{Trees: 40, MaxDepth: 12, Seed: 3})
	if err := rf.Train(d); err != nil {
		t.Fatal(err)
	}

	xs := datasetVectors(d)
	if len(xs) <= scoreBatchChunk {
		t.Fatalf("test block %d too small to cross the %d-row chunk boundary", len(xs), scoreBatchChunk)
	}
	batch := rf.ScoreBatch(xs, nil)
	for i, x := range xs {
		if got, want := batch[i], rf.Score(x); got != want {
			t.Fatalf("row %d: ScoreBatch %v != Score %v", i, got, want)
		}
	}

	// Caller-provided output slice is filled and returned.
	out := make([]float64, len(xs))
	if got := rf.ScoreBatch(xs, out); &got[0] != &out[0] {
		t.Fatal("ScoreBatch must fill the provided slice")
	}
	for i := range out {
		if out[i] != batch[i] {
			t.Fatalf("row %d: out-slice run differs", i)
		}
	}
}

// TestPredictBatchMatchesPredict covers the boolean fast path, including
// the untrained guard.
func TestPredictBatchMatchesPredict(t *testing.T) {
	d := syntheticDataset(300, 80, 5)
	rf := NewRandomForest(ForestConfig{Trees: 30, MaxDepth: 10, Seed: 1})

	for _, p := range rf.PredictBatch(datasetVectors(d)) {
		if p {
			t.Fatal("untrained forest predicted true")
		}
	}
	if err := rf.Train(d); err != nil {
		t.Fatal(err)
	}
	xs := datasetVectors(d)
	batch := rf.PredictBatch(xs)
	for i, x := range xs {
		if batch[i] != rf.Predict(x) {
			t.Fatalf("row %d: PredictBatch %v != Predict %v", i, batch[i], rf.Predict(x))
		}
	}
}

// TestEvaluateUsesBatchPath: Evaluate over a BatchClassifier equals the
// per-row confusion, and the forest actually implements the interfaces.
func TestEvaluateUsesBatchPath(t *testing.T) {
	d := syntheticDataset(400, 80, 9)
	rf := NewRandomForest(ForestConfig{Trees: 30, MaxDepth: 10, Seed: 2})
	if err := rf.Train(d); err != nil {
		t.Fatal(err)
	}
	var _ BatchClassifier = rf
	var _ BatchScorer = rf

	got := Evaluate(rf, d)
	var want Confusion
	for i := range d.Examples {
		want.Observe(rf.Predict(d.Examples[i].X), d.Examples[i].Y)
	}
	if got != want {
		t.Fatalf("Evaluate batch path %v != per-row %v", got, want)
	}

	// The score-based evaluators agree with their per-row equivalents too.
	gotAt := EvaluateAt(rf, d, 0.1)
	var wantAt Confusion
	for i := range d.Examples {
		wantAt.Observe(rf.Score(d.Examples[i].X) >= 0.1, d.Examples[i].Y)
	}
	if gotAt != wantAt {
		t.Fatalf("EvaluateAt batch path %v != per-row %v", gotAt, wantAt)
	}
}

func TestScoreBatchEmpty(t *testing.T) {
	rf := NewRandomForest(ForestConfig{Trees: 4, Seed: 1})
	if out := rf.ScoreBatch(nil, nil); len(out) != 0 {
		t.Fatalf("ScoreBatch(nil) = %v, want empty", out)
	}
	if out := rf.PredictBatch(nil); len(out) != 0 {
		t.Fatalf("PredictBatch(nil) = %v, want empty", out)
	}
}
