package ml

import (
	"encoding/binary"
	"errors"
	"fmt"

	"apichecker/internal/wire"
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
// Decoding is strictly bounds-checked (internal/wire): corrupt or truncated
// payloads return an error wrapping ErrCorruptForest — never a panic —
// every declared count is checked against the bytes that remain before
// anything is allocated at that size, and child indexes must point inside
// their tree.

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
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(rf.trees)))
	for _, v := range []int64{int64(rf.cfg.Trees), int64(rf.cfg.MaxDepth),
		int64(rf.cfg.MinLeaf), int64(rf.cfg.MTry), rf.cfg.Seed} {
		buf = le.AppendUint64(buf, uint64(v))
	}
	buf = le.AppendUint32(buf, uint32(len(rf.importance)))
	for _, v := range rf.importance {
		buf = wire.AppendF64(buf, v)
	}
	for _, t := range rf.trees {
		buf = le.AppendUint32(buf, uint32(len(t.nodes)))
		for _, n := range t.nodes {
			buf = le.AppendUint32(buf, uint32(n.feature))
			buf = le.AppendUint32(buf, uint32(n.left))
			buf = le.AppendUint32(buf, uint32(n.right))
			buf = wire.AppendF64(buf, n.prob)
		}
	}
	return buf, nil
}

// DecodeForestBinary decodes a forest encoded by AppendBinary from the
// front of data, returning the forest and the number of bytes consumed.
// Failures wrap ErrCorruptForest and never panic.
func DecodeForestBinary(data []byte) (*RandomForest, int, error) {
	r := wire.NewReader(data)
	nTrees := r.U32()
	if nTrees == 0 || nTrees > maxReasonableCount {
		r.Fail(fmt.Errorf("%d trees", nTrees))
	}
	trees := r.Count(uint64(nTrees), "tree", minTreeBytes)
	rf := &RandomForest{cfg: ForestConfig{Trees: int(r.U64()), MaxDepth: int(r.U64()),
		MinLeaf: int(r.U64()), MTry: int(r.U64()), Seed: int64(r.U64())}}
	nImp := r.U32()
	if nImp > maxReasonableCount {
		r.Fail(fmt.Errorf("%d importance entries", nImp))
	}
	rf.importance = make([]float64, r.Count(uint64(nImp), "importance entry", 8))
	for i := range rf.importance {
		rf.importance[i] = r.F64()
	}
	rf.trees = make([]*CART, 0, trees)
	for ti := range trees {
		nNodes := r.U32()
		if nNodes == 0 || nNodes > maxReasonableCount {
			r.Fail(fmt.Errorf("tree %d has %d nodes", ti, nNodes))
		}
		nodes := make([]treeNode, r.Count(uint64(nNodes), "node", nodeBytes))
		for i := range nodes {
			n := treeNode{feature: int32(r.U32()), left: int32(r.U32()), right: int32(r.U32()), prob: r.F64()}
			if n.feature >= 0 {
				if n.left < 0 || int(n.left) >= len(nodes) || n.right < 0 || int(n.right) >= len(nodes) {
					r.Fail(fmt.Errorf("tree %d node %d has invalid children", ti, i))
				}
			} else if n.left != -1 || n.right != -1 {
				// One encoding per forest: a leaf that names children
				// would decode to the same model under different bytes.
				r.Fail(fmt.Errorf("tree %d leaf %d names children", ti, i))
			}
			nodes[i] = n
		}
		if !isPreorderTree(nodes) {
			r.Fail(fmt.Errorf("tree %d is not one tree in preorder", ti))
		}
		if r.Err() != nil {
			break
		}
		t := &CART{cfg: CARTConfig{}, trained: true, nodes: nodes}
		t.buildBatch()
		rf.trees = append(rf.trees, t)
	}
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrCorruptForest, err)
	}
	rf.trained = true
	return rf, r.Off(), nil
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
