package ml

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// trainedForest builds a small trained forest over a synthetic dataset.
func trainedForest(t *testing.T, seed int64, features int) (*RandomForest, *Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset(features)
	for i := 0; i < 120; i++ {
		x := NewVector(features)
		y := rng.Float64() < 0.4
		for f := 0; f < features; f++ {
			p := 0.15
			if y && f%3 == 0 {
				p = 0.7
			}
			if rng.Float64() < p {
				x.Set(f)
			}
		}
		d.Add(x, y)
	}
	rf := NewRandomForest(ForestConfig{Trees: 12, MaxDepth: 8, MinLeaf: 1, Seed: seed})
	if err := rf.Train(d); err != nil {
		t.Fatal(err)
	}
	return rf, d
}

func TestForestBinaryRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rf, d := trainedForest(t, seed, 48)
		enc, err := rf.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Determinism: encoding the same forest twice is byte-identical.
		enc2, err := rf.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("seed %d: repeated encode differs", seed)
		}

		dec, n, err := DecodeForestBinary(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) {
			t.Fatalf("seed %d: decode consumed %d of %d bytes", seed, n, len(enc))
		}
		// Canonical form: decode→encode round-trips to the same bytes.
		re, err := dec.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("seed %d: decode→encode not canonical", seed)
		}

		// Scores are bit-identical, per row and batched.
		xs := datasetVectors(d)
		want := rf.ScoreBatch(xs, nil)
		got := dec.ScoreBatch(xs, nil)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d row %d: decoded score %v != %v", seed, i, got[i], want[i])
			}
			if s := dec.Score(xs[i]); s != want[i] {
				t.Fatalf("seed %d row %d: decoded per-row score %v != %v", seed, i, s, want[i])
			}
		}
	}
}

func TestForestBinaryCorruptAndTruncated(t *testing.T) {
	rf, _ := trainedForest(t, 3, 32)
	enc, err := rf.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation point must fail cleanly (never panic, never
	// succeed with fewer bytes).
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, err := DecodeForestBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		} else if !errors.Is(err, ErrCorruptForest) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorruptForest", cut, err)
		}
	}

	// Corrupting the tree count must be caught by the bounds checks.
	bad := append([]byte(nil), enc...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := DecodeForestBinary(bad); !errors.Is(err, ErrCorruptForest) {
		t.Fatalf("corrupt tree count: %v", err)
	}
}

func TestAUCScoresMatchesCurveAUC(t *testing.T) {
	rf, d := trainedForest(t, 9, 40)
	curve := ROC(rf, d)
	want := AUC(curve)
	scores := scoresOf(rf, d)
	labels := make([]bool, d.Len())
	for i := range d.Examples {
		labels[i] = d.Examples[i].Y
	}
	got := AUCScores(scores, labels)
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("AUCScores = %v, curve AUC = %v", got, want)
	}
}

// allocatedBytes reports the heap bytes f allocates (cumulative, so a
// buffer that is freed again still counts).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLyingCountAllocatesNothing: a declared count is checked against the
// bytes that remain before anything is sized by it, so a few dozen hostile
// bytes cannot make the decoder allocate hundreds of MiB on its way to
// reporting truncation. One payload per declared count in the two model
// codecs, each lying with the largest count the constant cap lets through.
func TestLyingCountAllocatesNothing(t *testing.T) {
	const lie = maxReasonableCount
	u32 := func(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
	header := func(trees, importance uint32) []byte {
		buf := u32(nil, trees)
		buf = append(buf, make([]byte, 5*8)...) // ForestConfig
		return u32(buf, importance)
	}
	forest := func(data []byte) error { _, _, err := DecodeForestBinary(data); return err }
	linear := func(data []byte) error { _, _, err := DecodeLinearBinary(data); return err }

	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
		wrap    error
	}{
		{"trees", u32(header(lie, 0), 1), forest, ErrCorruptForest},
		{"importance entries", u32(header(1, lie), 1), forest, ErrCorruptForest},
		{"nodes per tree", u32(header(1, 0), lie), forest, ErrCorruptForest},
		{"weights", append(u32(nil, lie), make([]byte, 8)...), linear, ErrCorruptLinear},
	}
	for _, tc := range cases {
		var err error
		got := allocatedBytes(func() { err = tc.decode(tc.payload) })
		if !errors.Is(err, tc.wrap) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.wrap)
		}
		if got >= 1<<20 {
			t.Errorf("%s: a %d-byte payload made the decoder allocate %d bytes", tc.name, len(tc.payload), got)
		}
	}
}

// TestForestBinaryRejectsNonTrees: child indexes that are in range but do
// not spell one preorder tree — a cycle, which would never reach a leaf,
// or a shared subtree, whose depth walk doubles per level — are refused at
// decode, before anything walks them.
func TestForestBinaryRejectsNonTrees(t *testing.T) {
	encode := func(nodes ...treeNode) []byte {
		rf := &RandomForest{trained: true, trees: []*CART{{nodes: nodes}}}
		enc, err := rf.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	leaf := treeNode{feature: -1, left: -1, right: -1}
	if _, _, err := DecodeForestBinary(encode(treeNode{feature: 0, left: 1, right: 2}, leaf, leaf)); err != nil {
		t.Fatalf("a well-formed tree was refused: %v", err)
	}
	for name, enc := range map[string][]byte{
		"cycle":          encode(treeNode{feature: 0, left: 1, right: 2}, treeNode{feature: 1, left: 0, right: 2}, leaf),
		"shared subtree": encode(treeNode{feature: 0, left: 1, right: 1}, leaf),
		"orphan node":    encode(leaf, leaf),
		"leaf children":  encode(treeNode{feature: -1, left: 0, right: 0}),
	} {
		if _, _, err := DecodeForestBinary(enc); !errors.Is(err, ErrCorruptForest) {
			t.Errorf("%s: decoded with error %v, want ErrCorruptForest", name, err)
		}
	}
}
