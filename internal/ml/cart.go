package ml

import (
	"math"
	"math/rand"
	"sync"
)

// CARTConfig configures a single classification tree.
type CARTConfig struct {
	MaxDepth int
	MinLeaf  int
	// MTry, when positive, restricts each split to a random feature
	// subset of that size (used by random forests). Zero means all
	// features are candidates.
	MTry int
	Seed int64
}

// CART is a classification tree splitting on binary features by Gini
// impurity (Breiman et al., the paper's [8]).
type CART struct {
	cfg     CARTConfig
	trained bool
	// nodes is the tree in preorder (root at index 0), children linked by
	// index. One pointer-free slice per tree keeps training allocation
	// flat and gives the garbage collector nothing to trace in a trained
	// forest — which matters once models and cached corpus runs are
	// retained across a whole simulated year.
	nodes []treeNode
	// bnodes is the derived batch-inference layout over the same indices
	// (see buildBatch); depth is the longest root-to-leaf edge count.
	bnodes []batchNode
	depth  int
	// importance accumulates per-feature Gini importance (impurity
	// decrease weighted by node size), populated during Train.
	importance []float64
}

type treeNode struct {
	feature     int32   // -1 for leaves
	left, right int32   // node indexes; -1 for none
	prob        float64 // P(malicious) at leaf
}

// batchNode mirrors treeNode for the lockstep batch walk: leaves self-loop
// (left == right == own index) and test word 0 against an empty mask, so
// one step is a plain masked load plus a conditional index select — no
// leaf branch, which lets the compiler keep the walk branch-free and
// several rows in flight. The feature bit position is pre-split into the
// vector word index and bit mask so the walk does no shifts.
type batchNode struct {
	word        int32 // feature / 64
	left, right int32
	mask        uint64 // 1 << (feature % 64); 0 for leaves
	prob        float64
}

// NewCART returns an untrained tree.
func NewCART(cfg CARTConfig) *CART {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 14
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	return &CART{cfg: cfg}
}

// Name implements Classifier.
func (t *CART) Name() string { return "CART" }

// Importance returns per-feature Gini importance (unnormalized).
func (t *CART) Importance() []float64 { return t.importance }

// Train implements Classifier.
func (t *CART) Train(d *Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	return t.train(d, transposeDataset(d), rand.New(rand.NewSource(t.cfg.Seed)), false)
}

// trainCols trains on a bootstrap sample drawn with rng (random forest
// bagging) against a prebuilt column view; the forest transposes the
// dataset once and shares it across all trees.
func (t *CART) trainCols(d *Dataset, fc *featureColumns, rng *rand.Rand) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	return t.train(d, fc, rng, true)
}

func (t *CART) train(d *Dataset, fc *featureColumns, rng *rand.Rand, bootstrap bool) error {
	g := growers.Get().(*grower)
	g.reset(&t.cfg, fc, d.NumFeatures, d.Len())
	// Examples are held as label-partitioned lists of DISTINCT indices
	// plus a per-example multiplicity (the bootstrap draw count): split
	// counting needs one column test per distinct element, and a 600-draw
	// bootstrap has only ~63% distinct members. Weighted counts equal the
	// duplicate-expanded counts exactly, and only counts feed the split
	// math, so the grown tree is identical to one grown over the
	// duplicate-expanded list.
	posW := 0
	if bootstrap {
		for i := 0; i < d.Len(); i++ {
			j := rng.Intn(d.Len())
			p := colTest(fc.y, j)
			if g.wgt[j] == 0 {
				if p {
					g.pos = append(g.pos, j)
				} else {
					g.neg = append(g.neg, j)
				}
			}
			g.wgt[j]++
			if p {
				posW++
			}
		}
	} else {
		for i := 0; i < d.Len(); i++ {
			g.wgt[i] = 1
			if colTest(fc.y, i) {
				g.pos = append(g.pos, i)
				posW++
			} else {
				g.neg = append(g.neg, i)
			}
		}
	}
	t.importance = make([]float64, d.NumFeatures)
	g.importance = t.importance
	g.grow(g.pos, g.neg, posW, d.Len(), 0, rng)
	t.nodes = append([]treeNode(nil), g.nodes...)
	g.cfg, g.fc, g.importance = nil, nil, nil
	growers.Put(g)
	t.buildBatch()
	t.trained = true
	return nil
}

// buildBatch derives the batch-inference layout from the canonical
// preorder nodes: identical indices and probabilities, but leaves
// self-loop on feature 0 so a lockstep walk needs no termination test.
// It also records the tree depth — the step count after which every row
// is guaranteed to sit on its leaf.
func (t *CART) buildBatch() {
	t.bnodes = make([]batchNode, len(t.nodes))
	for i, n := range t.nodes {
		if n.feature < 0 {
			t.bnodes[i] = batchNode{word: 0, mask: 0, left: int32(i), right: int32(i), prob: n.prob}
		} else {
			t.bnodes[i] = batchNode{
				word: n.feature / 64,
				mask: 1 << (uint(n.feature) % 64),
				left: n.left, right: n.right, prob: n.prob,
			}
		}
	}
	t.depth = nodeDepth(t.nodes, 0)
}

// nodeDepth is the edge count of the deepest leaf under node i.
func nodeDepth(nodes []treeNode, i int32) int {
	n := nodes[i]
	if n.feature < 0 {
		return 0
	}
	return 1 + max(nodeDepth(nodes, n.left), nodeDepth(nodes, n.right))
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// grower carries one tree's growth state: the shared column view, the
// importance accumulator, and a scratch buffer so node partitions reuse
// the parent's index storage instead of allocating per node.
type grower struct {
	cfg         *CARTConfig
	fc          *featureColumns
	importance  []float64
	numFeatures int
	pos, neg    []int   // distinct example indices, by label
	wgt         []int32 // per-example bootstrap multiplicity
	scratch     []int
	identity    []int // all-features candidate list
	draws       []int // MTry candidate buffer
	nodes       []treeNode
}

// growers recycles per-tree growth state; a forest trains 120 trees in
// parallel and the index/arena buffers dominate its allocations.
var growers = sync.Pool{New: func() any { return new(grower) }}

// reset prepares pooled state for one tree over n examples.
func (g *grower) reset(cfg *CARTConfig, fc *featureColumns, numFeatures, n int) {
	g.cfg, g.fc, g.numFeatures = cfg, fc, numFeatures
	if cap(g.pos) < n {
		g.pos = make([]int, 0, n)
	} else {
		g.pos = g.pos[:0]
	}
	if cap(g.neg) < n {
		g.neg = make([]int, 0, n)
	} else {
		g.neg = g.neg[:0]
	}
	if cap(g.wgt) < n {
		g.wgt = make([]int32, n)
	} else {
		g.wgt = g.wgt[:n]
		clear(g.wgt)
	}
	if cap(g.scratch) < n {
		g.scratch = make([]int, 0, n)
	}
	if cap(g.nodes) < 2*n {
		g.nodes = make([]treeNode, 0, 2*n)
	} else {
		g.nodes = g.nodes[:0]
	}
}

// grow appends the subtree over a node's examples — given as label-
// partitioned lists of distinct indices (posIdx malicious, negIdx benign)
// plus the node's duplicate-inclusive totals (pos malicious draws, n all
// draws) — to the preorder node arena, returning its root index.
func (g *grower) grow(posIdx, negIdx []int, pos, n, depth int, rng *rand.Rand) int32 {
	self := int32(len(g.nodes))
	g.nodes = append(g.nodes, treeNode{feature: -1, left: -1, right: -1})

	leaf := func() int32 {
		g.nodes[self].prob = (float64(pos) + 0.5) / (float64(n) + 1)
		return self
	}
	if depth >= g.cfg.MaxDepth || n < 2*g.cfg.MinLeaf || pos == 0 || pos == n {
		return leaf()
	}

	parentGini := gini(pos, n)
	bestFeature, bestGain := -1, 1e-12
	bestSetPos, bestSetN := 0, 0

	for _, f := range g.candidateFeatures(rng) {
		col := g.fc.bits[f]
		setPos := countSet(col, posIdx, g.wgt)
		setN := setPos + countSet(col, negIdx, g.wgt)
		if setN < g.cfg.MinLeaf || n-setN < g.cfg.MinLeaf {
			continue
		}
		gain := parentGini -
			(float64(setN)/float64(n))*gini(setPos, setN) -
			(float64(n-setN)/float64(n))*gini(pos-setPos, n-setN)
		if gain > bestGain {
			bestGain, bestFeature = gain, f
			bestSetPos, bestSetN = setPos, setN
		}
	}
	if bestFeature < 0 {
		return leaf()
	}
	g.importance[bestFeature] += bestGain * float64(n)

	col := g.fc.bits[bestFeature]
	leftPos, rightPos := g.partition(col, posIdx)
	leftNeg, rightNeg := g.partition(col, negIdx)
	g.nodes[self].feature = int32(bestFeature)
	left := g.grow(leftPos, leftNeg, pos-bestSetPos, n-bestSetN, depth+1, rng)
	right := g.grow(rightPos, rightNeg, bestSetPos, bestSetN, depth+1, rng)
	g.nodes[self].left = left
	g.nodes[self].right = right
	return self
}

// countSet sums the bootstrap weight of the example indices whose column
// bit is set — exactly the count a duplicate-expanded index list would
// produce.
func countSet(col []uint64, idx []int, wgt []int32) int {
	c := int32(0)
	for _, i := range idx {
		// Branchless: the bit-membership test on near-random example
		// subsets is the least predictable branch in training.
		bit := int32(col[i>>6]>>(uint(i)&63)) & 1
		c += bit * wgt[i]
	}
	return int(c)
}

// partition stably splits idx in place by the column bit: clear bits are
// compacted to the front, set bits staged in scratch and copied back after
// the boundary. Children slice the parent's storage, so a whole tree
// partitions with zero index allocations.
func (g *grower) partition(col []uint64, idx []int) (clear, set []int) {
	right := g.scratch[:0]
	left := idx[:0]
	for _, i := range idx {
		if colTest(col, i) {
			right = append(right, i)
		} else {
			left = append(left, i)
		}
	}
	rest := idx[len(left):]
	copy(rest, right)
	return left, rest
}

// candidateFeatures returns the features to evaluate at one split. The
// returned slice is reused across nodes.
func (g *grower) candidateFeatures(rng *rand.Rand) []int {
	m := g.cfg.MTry
	if m <= 0 || m >= g.numFeatures {
		if len(g.identity) != g.numFeatures {
			g.identity = make([]int, g.numFeatures)
			for i := range g.identity {
				g.identity[i] = i
			}
		}
		return g.identity
	}
	if cap(g.draws) < m {
		g.draws = make([]int, m)
	}
	d := g.draws[:m]
	for i := range d {
		d[i] = rng.Intn(g.numFeatures)
	}
	return d
}

// Score implements Scorer: leaf probability shifted to a zero threshold.
func (t *CART) Score(x Vector) float64 { return t.prob(x) - 0.5 }

// prob walks the tree.
func (t *CART) prob(x Vector) float64 {
	nodes := t.nodes
	node := &nodes[0]
	for node.feature >= 0 {
		if x.Get(int(node.feature)) {
			node = &nodes[node.right]
		} else {
			node = &nodes[node.left]
		}
	}
	return node.prob
}

// probBatch4 walks four rows through the tree in lockstep over the batch
// layout. The four index chains are data-independent, so their dependent
// node/feature loads overlap in the pipeline instead of serializing the
// way four prob calls would; self-looping leaves make every step uniform
// (finished rows idle on their leaf until the deepest row lands). Each row
// reaches exactly the leaf prob would reach.
func (t *CART) probBatch4(x0, x1, x2, x3 Vector) (p0, p1, p2, p3 float64) {
	nodes := t.bnodes
	var i0, i1, i2, i3 int32
	for s := 0; s < t.depth; s++ {
		n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
		i0 = n0.left
		if x0[n0.word]&n0.mask != 0 {
			i0 = n0.right
		}
		i1 = n1.left
		if x1[n1.word]&n1.mask != 0 {
			i1 = n1.right
		}
		i2 = n2.left
		if x2[n2.word]&n2.mask != 0 {
			i2 = n2.right
		}
		i3 = n3.left
		if x3[n3.word]&n3.mask != 0 {
			i3 = n3.right
		}
	}
	return nodes[i0].prob, nodes[i1].prob, nodes[i2].prob, nodes[i3].prob
}

// probTrees4 walks one row through four trees in lockstep over their batch
// layouts: probBatch4 turned around, four trees for one row. Each walker
// parks on its self-looping leaf until the deepest of the four lands, and
// reaches exactly the leaf prob would reach. One walker over four node
// slices and four rows could serve both, but keeps eight slices live in
// the loop, and the compiler spills them to the stack.
func probTrees4(t0, t1, t2, t3 *CART, x Vector) (p0, p1, p2, p3 float64) {
	b0, b1, b2, b3 := t0.bnodes, t1.bnodes, t2.bnodes, t3.bnodes
	var i0, i1, i2, i3 int32
	for s, depth := 0, max(t0.depth, t1.depth, t2.depth, t3.depth); s < depth; s++ {
		n0, n1, n2, n3 := &b0[i0], &b1[i1], &b2[i2], &b3[i3]
		i0 = n0.left
		if x[n0.word]&n0.mask != 0 {
			i0 = n0.right
		}
		i1 = n1.left
		if x[n1.word]&n1.mask != 0 {
			i1 = n1.right
		}
		i2 = n2.left
		if x[n2.word]&n2.mask != 0 {
			i2 = n2.right
		}
		i3 = n3.left
		if x[n3.word]&n3.mask != 0 {
			i3 = n3.right
		}
	}
	return b0[i0].prob, b1[i1].prob, b2[i2].prob, b3[i3].prob
}

// Predict implements Classifier.
func (t *CART) Predict(x Vector) bool {
	if !t.trained {
		return false
	}
	return t.prob(x) > 0.5
}

// defaultMTry is the forest's feature-subset size: sqrt(d).
func defaultMTry(numFeatures int) int {
	m := int(math.Sqrt(float64(numFeatures)))
	if m < 1 {
		m = 1
	}
	return m
}
