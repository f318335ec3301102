package ml

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorSetGet(t *testing.T) {
	v := NewVector(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		if v.Get(i) {
			t.Errorf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if v.Ones() != 7 {
		t.Errorf("Ones = %d, want 7", v.Ones())
	}
}

func TestVectorForEachSet(t *testing.T) {
	v := NewVector(200)
	want := []int{3, 64, 65, 130, 199}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEachSet(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestVectorDotHamming(t *testing.T) {
	a := NewVector(128)
	b := NewVector(128)
	a.Set(1)
	a.Set(70)
	a.Set(100)
	b.Set(70)
	b.Set(100)
	b.Set(127)
	if got := a.Dot(b); got != 2 {
		t.Errorf("Dot = %d, want 2", got)
	}
	if got := a.Hamming(b); got != 2 {
		t.Errorf("Hamming = %d, want 2", got)
	}
	if a.Hamming(a) != 0 {
		t.Error("self Hamming non-zero")
	}
}

func TestVectorKeyAndClone(t *testing.T) {
	f := func(bitsRaw []uint16) bool {
		v := NewVector(256)
		for _, b := range bitsRaw {
			v.Set(int(b) % 256)
		}
		c := v.Clone()
		if v.Key() != c.Key() {
			return false
		}
		// Keys equal iff same bits.
		other := NewVector(256)
		return (v.Key() == other.Key()) == (v.Ones() == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Hamming = |a| + |b| - 2*Dot for any pair.
func TestVectorIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a, b := NewVector(300), NewVector(300)
		for i := 0; i < 300; i++ {
			if rng.Intn(3) == 0 {
				a.Set(i)
			}
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		if a.Hamming(b) != a.Ones()+b.Ones()-2*a.Dot(b) {
			t.Fatal("Hamming identity violated")
		}
	}
}

func TestDatasetSplitAndFolds(t *testing.T) {
	d := NewDataset(64)
	for i := 0; i < 100; i++ {
		v := NewVector(64)
		v.Set(i % 64)
		if err := d.Add(v, i%5 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Add(NewVector(128), true); err == nil {
		t.Error("Add accepted wrong-width vector")
	}
	train, test := d.Split(0.8, 1)
	if train.Len()+test.Len() != d.Len() {
		t.Errorf("split sizes %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	folds := d.StratifiedFolds(10, 2)
	total, pos := 0, 0
	for _, f := range folds {
		total += len(f)
		for _, i := range f {
			if d.Examples[i].Y {
				pos++
			}
		}
	}
	if total != d.Len() || pos != d.Positives() {
		t.Errorf("folds cover %d (%d pos), want %d (%d)", total, pos, d.Len(), d.Positives())
	}
	// Stratification: each fold has at least one positive (20 positives,
	// 10 folds).
	for fi, f := range folds {
		p := 0
		for _, i := range f {
			if d.Examples[i].Y {
				p++
			}
		}
		if p == 0 {
			t.Errorf("fold %d has no positives", fi)
		}
	}
}

func TestRemoveDuplicatesOf(t *testing.T) {
	ref := NewDataset(64)
	d := NewDataset(64)
	shared := NewVector(64)
	shared.Set(3)
	unique := NewVector(64)
	unique.Set(9)
	_ = ref.Add(shared.Clone(), false)
	_ = d.Add(shared, true)
	_ = d.Add(unique, false)
	got := d.RemoveDuplicatesOf(ref)
	if got.Len() != 1 || got.Examples[0].X.Get(3) {
		t.Errorf("dedup kept %d examples", got.Len())
	}
}

func TestFeatureCounts(t *testing.T) {
	d := NewDataset(8)
	v1 := NewVector(8)
	v1.Set(0)
	v1.Set(3)
	v2 := NewVector(8)
	v2.Set(3)
	_ = d.Add(v1, true)
	_ = d.Add(v2, false)
	pos, neg := d.FeatureCounts()
	if pos[0] != 1 || pos[3] != 1 || neg[3] != 1 || neg[0] != 0 {
		t.Errorf("counts pos=%v neg=%v", pos, neg)
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 85, FN: 5}
	if got := c.Precision(); got != 0.8 {
		t.Errorf("Precision = %f", got)
	}
	if got := c.Recall(); got*13 != 8 {
		t.Errorf("Recall = %f", got)
	}
	wantF1 := 2 * 0.8 * (8.0 / 13) / (0.8 + 8.0/13)
	if got := c.F1(); got < wantF1-1e-12 || got > wantF1+1e-12 {
		t.Errorf("F1 = %f, want %f", got, wantF1)
	}
	if got := c.Accuracy(); got != 0.93 {
		t.Errorf("Accuracy = %f", got)
	}
	var zero Confusion
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 || zero.Accuracy() != 0 {
		t.Error("zero confusion produced NaN-ish metrics")
	}
}
