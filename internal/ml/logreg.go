package ml

import "math"

// LogReg is Table 2's logistic-regression row: a Classifier around the
// Linear model TrainLinear fits (L2-regularized logistic loss, SGD with
// sparse per-example updates and an epoch-level weight decay).
type LogReg struct {
	cfg LinearConfig
	m   *Linear
}

// NewLogReg returns an untrained logistic regression.
func NewLogReg(cfg LinearConfig) *LogReg { return &LogReg{cfg: cfg} }

// Name implements Classifier.
func (lr *LogReg) Name() string { return "Logistic Regression" }

// Train implements Classifier.
func (lr *LogReg) Train(d *Dataset) error {
	m, err := TrainLinear(d, lr.cfg)
	if err != nil {
		return err
	}
	lr.m = m
	return nil
}

// Score implements Scorer (pre-sigmoid logit); 0 before Train.
func (lr *LogReg) Score(x Vector) float64 {
	if lr.m == nil {
		return 0
	}
	return lr.m.Score(x)
}

// Predict implements Classifier.
func (lr *LogReg) Predict(x Vector) bool { return lr.Score(x) > 0 }

func sigmoid(z float64) float64 {
	if z < -35 {
		return 0
	}
	if z > 35 {
		return 1
	}
	return 1 / (1 + math.Exp(-z))
}
