package ml

import (
	"math/rand"

	"apichecker/internal/parallel"
)

// ForestConfig configures a random forest.
type ForestConfig struct {
	Trees    int
	MaxDepth int
	MinLeaf  int
	// MTry defaults to sqrt(NumFeatures) when zero.
	MTry int
	Seed int64
}

// RandomForest is bagged CART trees with per-split feature subsampling —
// the classifier APICHECKER deploys (§4.3: best precision, near-best
// recall, cheap training, good interpretability via Gini importance).
type RandomForest struct {
	cfg     ForestConfig
	trained bool
	trees   []*CART

	importance []float64 // summed Gini importance across trees
}

// NewRandomForest returns an untrained forest.
func NewRandomForest(cfg ForestConfig) *RandomForest {
	if cfg.Trees <= 0 {
		cfg.Trees = 80
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 16
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	return &RandomForest{cfg: cfg}
}

// Name implements Classifier.
func (rf *RandomForest) Name() string { return "Random Forest" }

// Train implements Classifier. Trees are trained in parallel; tree seeds
// derive from the forest seed and the tree index, so results are
// independent of scheduling.
func (rf *RandomForest) Train(d *Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	mtry := rf.cfg.MTry
	if mtry <= 0 {
		mtry = defaultMTry(d.NumFeatures)
	}
	rf.trees = make([]*CART, rf.cfg.Trees)
	errs := make([]error, rf.cfg.Trees)
	fc := transposeDataset(d)

	parallel.Run(rf.cfg.Trees, 0, func(ti int) {
		tree := NewCART(CARTConfig{
			MaxDepth: rf.cfg.MaxDepth,
			MinLeaf:  rf.cfg.MinLeaf,
			MTry:     mtry,
			Seed:     rf.cfg.Seed + int64(ti)*0x9e3779b9,
		})
		rng := rand.New(newSplitMix(tree.cfg.Seed ^ 0x51ed))
		errs[ti] = tree.trainCols(d, fc, rng)
		rf.trees[ti] = tree
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	rf.importance = make([]float64, d.NumFeatures)
	for _, tree := range rf.trees {
		for f, v := range tree.Importance() {
			rf.importance[f] += v
		}
	}
	rf.trained = true
	return nil
}

// Score implements Scorer: mean leaf probability minus the 0.5 threshold.
// Trees are walked four at a time (see probTrees4), and the sum still adds
// their probabilities in tree order, so the score is the tree-by-tree one
// to the bit.
func (rf *RandomForest) Score(x Vector) float64 {
	sum, trees := 0.0, rf.trees
	for ; len(trees) >= 4; trees = trees[4:] {
		p0, p1, p2, p3 := probTrees4(trees[0], trees[1], trees[2], trees[3], x)
		sum += p0
		sum += p1
		sum += p2
		sum += p3
	}
	for _, tree := range trees {
		sum += tree.prob(x)
	}
	return sum/float64(len(rf.trees)) - 0.5
}

// Predict implements Classifier.
func (rf *RandomForest) Predict(x Vector) bool {
	if !rf.trained {
		return false
	}
	return rf.Score(x) > 0
}

// scoreBatchChunk is the row-block size of batch inference: large enough
// that each tree's flat node slice is walked over many rows while hot in
// cache, small enough that chunks parallelize across cores.
const scoreBatchChunk = 256

// ScoreBatch implements BatchScorer: it scores a block of vectors into
// out (allocated when nil) and returns it. The walk is tree-major — outer
// loop over trees, inner loop over the block's rows — so each tree's flat
// preorder node slice stays cache-hot across the whole block instead of
// being re-fetched per row. Blocks beyond scoreBatchChunk rows are
// chunked and scored in parallel.
//
// Every output is bit-identical to Score on the same row: per-row sums
// accumulate in tree-index order and the final division matches Score's,
// so batch composition can never change a verdict.
func (rf *RandomForest) ScoreBatch(xs []Vector, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(xs))
	}
	if len(xs) == 0 {
		return out
	}
	nchunks := (len(xs) + scoreBatchChunk - 1) / scoreBatchChunk
	parallel.Run(nchunks, 0, func(ci int) {
		lo := ci * scoreBatchChunk
		hi := min(lo+scoreBatchChunk, len(xs))
		rows := xs[lo:hi]
		sums := out[lo:hi]
		for i := range sums {
			sums[i] = 0
		}
		for _, tree := range rf.trees {
			// Four rows walk each tree in lockstep (see probBatch4); the
			// remainder takes the scalar walk. Per-row sums still
			// accumulate in tree order, so totals match Score exactly.
			i := 0
			for ; i+4 <= len(rows); i += 4 {
				p0, p1, p2, p3 := tree.probBatch4(rows[i], rows[i+1], rows[i+2], rows[i+3])
				sums[i] += p0
				sums[i+1] += p1
				sums[i+2] += p2
				sums[i+3] += p3
			}
			for ; i < len(rows); i++ {
				sums[i] += tree.prob(rows[i])
			}
		}
		for i := range sums {
			sums[i] = sums[i]/float64(len(rf.trees)) - 0.5
		}
	})
	return out
}

// PredictBatch implements BatchClassifier; each element is bit-identical
// to Predict on the same row.
func (rf *RandomForest) PredictBatch(xs []Vector) []bool {
	out := make([]bool, len(xs))
	if !rf.trained {
		return out
	}
	scores := rf.ScoreBatch(xs, nil)
	for i, s := range scores {
		out[i] = s > 0
	}
	return out
}

// Importance returns normalized Gini importance per feature (sums to 1
// when any split happened). This is Fig. 13's ranking statistic.
func (rf *RandomForest) Importance() []float64 {
	out := make([]float64, len(rf.importance))
	total := 0.0
	for _, v := range rf.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for f, v := range rf.importance {
		out[f] = v / total
	}
	return out
}

// DefaultForestConfig is the tuned production forest configuration (§4.2:
// hyperparameters configured once from held-out data).
func DefaultForestConfig(seed int64) ForestConfig {
	return ForestConfig{Trees: 120, MaxDepth: 20, MinLeaf: 1, Seed: seed}
}
