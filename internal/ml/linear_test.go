package ml

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// linearDataset synthesizes a separable permission-style dataset: a few
// "significant" bits strongly correlate with the label, the rest are
// noise — the SigPID shape the triage scorer exists for.
func linearDataset(seed int64, n, feats int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := NewDataset(feats)
	for i := 0; i < n; i++ {
		y := rng.Intn(2) == 0
		v := NewVector(feats)
		for f := 0; f < feats; f++ {
			p := 0.08
			if f < 4 && y {
				p = 0.85 // significant-permission bits
			}
			if rng.Float64() < p {
				v.Set(f)
			}
		}
		d.Add(v, y)
	}
	return d
}

func TestTrainLinearSeparates(t *testing.T) {
	d := linearDataset(3, 400, 48)
	l, err := TrainLinear(d, DefaultLinearConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range d.Examples {
		ex := &d.Examples[i]
		if (l.Prob(ex.X) > 0.5) == ex.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.Len()); acc < 0.85 {
		t.Errorf("training accuracy %.3f, want >= 0.85 on a separable set", acc)
	}
	if l.NumFeatures() != 48 {
		t.Errorf("NumFeatures = %d", l.NumFeatures())
	}
}

// TestTrainLinearDeterministic: same dataset + config → bit-identical
// weights (the artifact digest depends on it).
func TestTrainLinearDeterministic(t *testing.T) {
	d := linearDataset(5, 200, 32)
	a, err := TrainLinear(d, DefaultLinearConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainLinear(d, DefaultLinearConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil)) {
		t.Error("repeated training produced different encodings")
	}
}

func TestTrainLinearRejectsBadInput(t *testing.T) {
	if _, err := TrainLinear(NewDataset(8), DefaultLinearConfig(1)); err == nil {
		t.Error("TrainLinear accepted an empty dataset")
	}
	d := linearDataset(1, 50, 8)
	if _, err := TrainLinear(d, LinearConfig{Epochs: 0, LearningRate: 0.1}); err == nil {
		t.Error("TrainLinear accepted zero epochs")
	}
}

func TestLinearBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		l := &Linear{W: make([]float64, rng.Intn(64)), B: rng.NormFloat64()}
		for i := range l.W {
			l.W[i] = rng.NormFloat64() * 3
		}
		if len(l.W) > 0 {
			l.W[0] = math.NaN() // bit-pattern survival, like forest probs
		}
		enc := l.AppendBinary(nil)
		got, n, err := DecodeLinearBinary(enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n != len(enc) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, n, len(enc))
		}
		if !bytes.Equal(got.AppendBinary(nil), enc) {
			t.Fatalf("trial %d: re-encode differs", trial)
		}
	}
}

func TestLinearBinaryCorrupt(t *testing.T) {
	l := &Linear{W: []float64{1, -2, 3}, B: 0.5}
	enc := l.AppendBinary(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeLinearBinary(enc[:cut]); !errors.Is(err, ErrCorruptLinear) {
			t.Fatalf("truncation to %d bytes: %v, want ErrCorruptLinear", cut, err)
		}
	}
	// A huge weight count must be rejected before allocation.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, _, err := DecodeLinearBinary(huge); !errors.Is(err, ErrCorruptLinear) {
		t.Errorf("huge count: %v, want ErrCorruptLinear", err)
	}
}

// TestLinearScoreIgnoresExtraBits: bits beyond the trained width do not
// perturb the score (defensive symmetry with LogReg.Score).
func TestLinearScoreIgnoresExtraBits(t *testing.T) {
	l := &Linear{W: []float64{1, 2}, B: 0}
	x := NewVector(130)
	x.Set(0)
	x.Set(129)
	if got := l.Score(x); got != 1 {
		t.Errorf("Score = %v, want 1", got)
	}
}
