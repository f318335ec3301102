// Package ml is a from-scratch machine-learning library over sparse binary
// feature vectors, providing the nine classifier families the paper
// benchmarks (Table 2): Naive Bayes, logistic regression, SVM, GBDT, kNN,
// CART, ANN, DNN, and random forest — plus stratified k-fold cross
// validation with duplicate-vector leakage control (§4.2) and Gini feature
// importance (Fig. 13).
//
// Feature vectors are One-Hot encodings ("bit i set" = "feature i
// observed"), stored as packed bitsets: with up to 50K tracked APIs the
// encoding density, popcount-based dot products, and cheap Hamming
// distances all matter.
package ml

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
)

// Vector is a packed bitset feature vector.
type Vector []uint64

// NewVector allocates a vector for n features.
func NewVector(n int) Vector { return make(Vector, (n+63)/64) }

// Set sets bit i.
func (v Vector) Set(i int) { v[i/64] |= 1 << (uint(i) % 64) }

// Get reports bit i.
func (v Vector) Get(i int) bool { return v[i/64]&(1<<(uint(i)%64)) != 0 }

// Ones counts the set bits.
func (v Vector) Ones() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEachSet calls fn for every set bit, ascending.
func (v Vector) ForEachSet(fn func(i int)) {
	for wi, w := range v {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Dot returns the number of overlapping set bits of two equal-length
// vectors.
func (v Vector) Dot(o Vector) int {
	n := 0
	for i := range v {
		n += bits.OnesCount64(v[i] & o[i])
	}
	return n
}

// Hamming returns the number of differing bits.
func (v Vector) Hamming(o Vector) int {
	n := 0
	for i := range v {
		n += bits.OnesCount64(v[i] ^ o[i])
	}
	return n
}

// Clone copies the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Key returns a map key identifying the exact bit pattern (used for
// duplicate-vector leakage control).
func (v Vector) Key() string {
	b := make([]byte, len(v)*8)
	for i, w := range v {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(w >> (8 * j))
		}
	}
	return string(b)
}

// Example is one labelled feature vector.
type Example struct {
	X Vector
	Y bool // true = malicious
}

// Dataset is a labelled collection with a fixed feature dimensionality.
type Dataset struct {
	NumFeatures int
	Examples    []Example
}

// NewDataset creates an empty dataset for n features.
func NewDataset(n int) *Dataset { return &Dataset{NumFeatures: n} }

// Add appends an example; the vector length must match.
func (d *Dataset) Add(x Vector, y bool) error {
	if len(x) != len(NewVector(d.NumFeatures)) {
		return fmt.Errorf("ml: vector has %d words, dataset needs %d", len(x), len(NewVector(d.NumFeatures)))
	}
	d.Examples = append(d.Examples, Example{X: x, Y: y})
	return nil
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Positives counts malicious examples.
func (d *Dataset) Positives() int {
	n := 0
	for i := range d.Examples {
		if d.Examples[i].Y {
			n++
		}
	}
	return n
}

// Subset returns a dataset view over the given example indexes (vectors are
// shared, not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := NewDataset(d.NumFeatures)
	out.Examples = make([]Example, len(idx))
	for i, j := range idx {
		out.Examples[i] = d.Examples[j]
	}
	return out
}

// Shuffled returns a permuted copy of the dataset (views share vectors).
func (d *Dataset) Shuffled(seed int64) *Dataset {
	idx := rand.New(rand.NewSource(seed)).Perm(d.Len())
	return d.Subset(idx)
}

// Split partitions into train/test by fraction (first trainFrac of a
// shuffled copy).
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset) {
	s := d.Shuffled(seed)
	cut := int(float64(s.Len()) * trainFrac)
	if cut < 1 {
		cut = 1
	}
	if cut >= s.Len() {
		cut = s.Len() - 1
	}
	train = NewDataset(d.NumFeatures)
	train.Examples = s.Examples[:cut]
	test = NewDataset(d.NumFeatures)
	test.Examples = s.Examples[cut:]
	return train, test
}

// StratifiedFolds splits example indexes into k folds preserving the class
// ratio, deterministically from seed.
func (d *Dataset) StratifiedFolds(k int, seed int64) [][]int {
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i := range d.Examples {
		if d.Examples[i].Y {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[(i+k/2)%k] = append(folds[(i+k/2)%k], idx)
	}
	for _, f := range folds {
		sort.Ints(f)
	}
	return folds
}

// RemoveDuplicatesOf returns a copy of d without examples whose exact
// feature vector also appears in ref — the paper's per-fold leakage control
// (§4.2: identical vectors in train and test exaggerate results).
func (d *Dataset) RemoveDuplicatesOf(ref *Dataset) *Dataset {
	seen := make(map[string]bool, ref.Len())
	for i := range ref.Examples {
		seen[ref.Examples[i].X.Key()] = true
	}
	out := NewDataset(d.NumFeatures)
	for i := range d.Examples {
		if !seen[d.Examples[i].X.Key()] {
			out.Examples = append(out.Examples, d.Examples[i])
		}
	}
	return out
}

// FeatureCounts returns, per feature, how many positive and negative
// examples have the bit set.
func (d *Dataset) FeatureCounts() (pos, neg []int) {
	pos = make([]int, d.NumFeatures)
	neg = make([]int, d.NumFeatures)
	for i := range d.Examples {
		ex := &d.Examples[i]
		counts := neg
		if ex.Y {
			counts = pos
		}
		ex.X.ForEachSet(func(f int) { counts[f]++ })
	}
	return pos, neg
}
