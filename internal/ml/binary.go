package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Deterministic binary serialization for trained forests — the model-
// artifact path (monthly evolution persists every promoted generation,
// content-addressed by digest, so the encoding must be byte-stable for
// identical models). The format is hand-laid-out little-endian with no
// type descriptors: encoding the same forest twice yields identical bytes,
// and decode→encode round-trips to the same bytes.
//
// Layout (all integers little-endian):
//
//	u32  tree count
//	cfg: i64 Trees, MaxDepth, MinLeaf, MTry, Seed
//	u32  importance length, then that many f64 bit patterns
//	per tree: u32 node count, then per node i32 feature, i32 left,
//	          i32 right, f64 prob bits
//
// Decoding is strictly bounds-checked: corrupt or truncated payloads
// return an error wrapping ErrCorruptForest — never a panic — every
// declared count is checked against the bytes that remain before anything
// is allocated at that size, and child indexes must point inside their
// tree.

// ErrCorruptForest marks a binary forest payload that fails structural
// validation (truncation, impossible counts, invalid child links).
var ErrCorruptForest = errors.New("ml: corrupt forest encoding")

// maxReasonableCount bounds decoded element counts whatever the payload
// size.
const maxReasonableCount = 1 << 26

// Minimum encoded sizes the count checks divide by: a tree is at least its
// node count and one node.
const (
	nodeBytes    = 4 + 4 + 4 + 8
	minTreeBytes = 4 + nodeBytes
)

// AppendBinary appends the forest's deterministic binary encoding to buf
// and returns the extended slice.
func (rf *RandomForest) AppendBinary(buf []byte) ([]byte, error) {
	if !rf.trained {
		return nil, fmt.Errorf("ml: cannot encode untrained forest")
	}
	buf = appendU32(buf, uint32(len(rf.trees)))
	for _, v := range []int64{int64(rf.cfg.Trees), int64(rf.cfg.MaxDepth),
		int64(rf.cfg.MinLeaf), int64(rf.cfg.MTry), rf.cfg.Seed} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = appendU32(buf, uint32(len(rf.importance)))
	for _, v := range rf.importance {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, t := range rf.trees {
		buf = appendU32(buf, uint32(len(t.nodes)))
		for _, n := range t.nodes {
			buf = appendU32(buf, uint32(n.feature))
			buf = appendU32(buf, uint32(n.left))
			buf = appendU32(buf, uint32(n.right))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.prob))
		}
	}
	return buf, nil
}

// DecodeForestBinary decodes a forest encoded by AppendBinary from the
// front of data, returning the forest and the number of bytes consumed.
// Failures wrap ErrCorruptForest and never panic.
func DecodeForestBinary(data []byte) (*RandomForest, int, error) {
	r := binReader{data: data}
	nTrees, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if nTrees == 0 || nTrees > maxReasonableCount {
		return nil, 0, fmt.Errorf("%w: %d trees", ErrCorruptForest, nTrees)
	}
	if err := r.fits(nTrees, minTreeBytes, "trees"); err != nil {
		return nil, 0, err
	}
	rf := &RandomForest{}
	var cfg [5]int64
	for i := range cfg {
		v, err := r.u64()
		if err != nil {
			return nil, 0, err
		}
		cfg[i] = int64(v)
	}
	rf.cfg = ForestConfig{Trees: int(cfg[0]), MaxDepth: int(cfg[1]),
		MinLeaf: int(cfg[2]), MTry: int(cfg[3]), Seed: cfg[4]}
	nImp, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if nImp > maxReasonableCount {
		return nil, 0, fmt.Errorf("%w: %d importance entries", ErrCorruptForest, nImp)
	}
	if err := r.fits(nImp, 8, "importance entries"); err != nil {
		return nil, 0, err
	}
	rf.importance = make([]float64, nImp)
	for i := range rf.importance {
		bits, err := r.u64()
		if err != nil {
			return nil, 0, err
		}
		rf.importance[i] = math.Float64frombits(bits)
	}
	rf.trees = make([]*CART, 0, nTrees)
	for ti := uint32(0); ti < nTrees; ti++ {
		nNodes, err := r.u32()
		if err != nil {
			return nil, 0, err
		}
		if nNodes == 0 || nNodes > maxReasonableCount {
			return nil, 0, fmt.Errorf("%w: tree %d has %d nodes", ErrCorruptForest, ti, nNodes)
		}
		if err := r.fits(nNodes, nodeBytes, "nodes"); err != nil {
			return nil, 0, err
		}
		nodes := make([]treeNode, nNodes)
		for i := range nodes {
			f, err1 := r.u32()
			l, err2 := r.u32()
			rt, err3 := r.u32()
			pb, err4 := r.u64()
			if err := errors.Join(err1, err2, err3, err4); err != nil {
				return nil, 0, err
			}
			n := treeNode{feature: int32(f), left: int32(l), right: int32(rt), prob: math.Float64frombits(pb)}
			if n.feature >= 0 {
				if n.left < 0 || int(n.left) >= len(nodes) || n.right < 0 || int(n.right) >= len(nodes) {
					return nil, 0, fmt.Errorf("%w: tree %d node %d has invalid children",
						ErrCorruptForest, ti, i)
				}
			} else if n.left != -1 || n.right != -1 {
				// One encoding per forest: a leaf that names children
				// would decode to the same model under different bytes.
				return nil, 0, fmt.Errorf("%w: tree %d leaf %d names children",
					ErrCorruptForest, ti, i)
			}
			nodes[i] = n
		}
		if !isPreorderTree(nodes) {
			return nil, 0, fmt.Errorf("%w: tree %d is not one tree in preorder", ErrCorruptForest, ti)
		}
		t := &CART{cfg: CARTConfig{}, trained: true, nodes: nodes}
		t.buildBatch()
		rf.trees = append(rf.trees, t)
	}
	rf.trained = true
	return rf, r.off, nil
}

// isPreorderTree reports whether nodes is exactly the arena grow lays out:
// one binary tree in preorder, each split's left child right behind it and
// its right child right behind the left subtree. In-range child indexes
// alone admit cycles (a walk that never reaches a leaf) and shared
// subtrees (a depth computation exponential in the node count).
func isPreorderTree(nodes []treeNode) bool {
	var open []int32 // right children the splits walked so far still await
	for i, n := range nodes {
		switch next := int32(i + 1); {
		case n.feature >= 0:
			if n.left != next || n.right <= next {
				return false
			}
			open = append(open, n.right)
		case len(open) > 0:
			if open[len(open)-1] != next {
				return false
			}
			open = open[:len(open)-1]
		default:
			return i == len(nodes)-1
		}
	}
	return false
}

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// binReader is a bounds-checked little-endian cursor; every read past the
// end reports truncation through ErrCorruptForest.
type binReader struct {
	data []byte
	off  int
}

// fits rejects a declared count unless n elements of at least minBytes
// each can still follow, so the caller may allocate at the declared size.
func (r *binReader) fits(n uint32, minBytes int, what string) error {
	if remain := len(r.data) - r.off; int(n) > remain/minBytes {
		return fmt.Errorf("%w: %d %s declared, %d bytes remain", ErrCorruptForest, n, what, remain)
	}
	return nil
}

func (r *binReader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrCorruptForest, r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *binReader) u64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrCorruptForest, r.off)
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}
