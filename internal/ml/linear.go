package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"apichecker/internal/wire"
)

// Linear is the tier-1 triage scorer: a plain linear model over the
// manifest-only (permission/intent) feature vector, per the SigPID line of
// work — a small ranked permission set separates most of the distribution
// at negligible cost. It is deliberately minimal: bare weights plus bias,
// deterministic byte-stable serialization, and no training state, because
// it travels inside the content-addressed APKMODEL artifact and hot-swaps
// with the serving generation.
type Linear struct {
	W []float64
	B float64
}

// LinearConfig configures TrainLinear's SGD loop (logistic loss, sparse
// per-example updates, epoch-level L2 decay): DefaultLinearConfig for the
// triage scorer, NewClassifier's for Table 2's LogReg.
type LinearConfig struct {
	Epochs       int
	LearningRate float64
	L2           float64
	Seed         int64
}

// DefaultLinearConfig returns the triage training configuration.
func DefaultLinearConfig(seed int64) LinearConfig {
	return LinearConfig{Epochs: 12, LearningRate: 0.1, L2: 1e-4, Seed: seed}
}

// TrainLinear fits a linear scorer on the dataset. Training is
// deterministic in (dataset, cfg): the same inputs produce bit-identical
// weights, which the artifact digest relies on.
func TrainLinear(d *Dataset, cfg LinearConfig) (*Linear, error) {
	if err := checkTrainable(d); err != nil {
		return nil, err
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("ml: TrainLinear: %d epochs", cfg.Epochs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	l := &Linear{W: make([]float64, d.NumFeatures)}
	n := d.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	eta := cfg.LearningRate
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			ex := &d.Examples[i]
			p := sigmoid(l.Score(ex.X))
			y := 0.0
			if ex.Y {
				y = 1
			}
			g := eta * (y - p)
			ex.X.ForEachSet(func(f int) { l.W[f] += g })
			l.B += g
		}
		if cfg.L2 > 0 {
			decay := 1 - eta*cfg.L2*float64(n)
			if decay < 0 {
				decay = 0
			}
			for f := range l.W {
				l.W[f] *= decay
			}
		}
		eta *= 0.95
	}
	return l, nil
}

// Score returns the pre-sigmoid logit for x. Bits beyond the trained
// dimensionality are ignored.
func (l *Linear) Score(x Vector) float64 {
	s := l.B
	x.ForEachSet(func(f int) {
		if f < len(l.W) {
			s += l.W[f]
		}
	})
	return s
}

// Prob returns the calibrated malice probability sigmoid(Score) — the
// value the triage band [lo, hi] is expressed in.
func (l *Linear) Prob(x Vector) float64 { return sigmoid(l.Score(x)) }

// NumFeatures returns the trained feature dimensionality.
func (l *Linear) NumFeatures() int { return len(l.W) }

// ErrCorruptLinear marks a binary linear-model payload that fails
// structural validation; decode failures wrap it and never panic.
var ErrCorruptLinear = errors.New("ml: corrupt linear-model encoding")

// AppendBinary appends the model's deterministic binary encoding to buf:
// u32 weight count, f64 bias bits, then the weight bit patterns, all
// little-endian. Identical models encode to identical bytes.
func (l *Linear) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.W)))
	buf = wire.AppendF64(buf, l.B)
	for _, w := range l.W {
		buf = wire.AppendF64(buf, w)
	}
	return buf
}

// DecodeLinearBinary decodes a model encoded by AppendBinary from the
// front of data, returning the model and the number of bytes consumed.
// Failures wrap ErrCorruptLinear; a truncation also wraps ErrCorruptForest,
// as it did when the two codecs shared the forest's reader.
func DecodeLinearBinary(data []byte) (*Linear, int, error) {
	r := wire.NewReader(data)
	n := r.U32()
	if n > maxReasonableCount {
		r.Fail(fmt.Errorf("%d weights", n))
	}
	l := &Linear{B: r.F64()}
	l.W = make([]float64, r.Count(uint64(n), "weight", 8))
	for i := range l.W {
		l.W[i] = r.F64()
	}
	if err := r.Err(); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("%w: %w", ErrCorruptForest, err)
		}
		return nil, 0, fmt.Errorf("%w: %w", ErrCorruptLinear, err)
	}
	return l, r.Off(), nil
}
