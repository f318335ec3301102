package ml

import "fmt"

// Classifier is a trainable binary classifier over bitset feature vectors.
type Classifier interface {
	// Name identifies the algorithm (Table 2 row label).
	Name() string
	// Train fits the model. Implementations must be deterministic for a
	// fixed dataset and configuration.
	Train(d *Dataset) error
	// Predict classifies one vector (true = malicious). Only valid after
	// a successful Train.
	Predict(x Vector) bool
}

// Scorer is implemented by classifiers that expose a continuous malice
// score (larger = more malicious); the decision threshold is score > 0.
type Scorer interface {
	Score(x Vector) float64
}

// BatchScorer is implemented by scorers with a block-inference fast path.
// ScoreBatch must produce, row for row, exactly the value Score would —
// batching is an execution strategy, never a semantic change. out, when
// non-nil, must have len(xs) elements and is returned filled.
type BatchScorer interface {
	Scorer
	ScoreBatch(xs []Vector, out []float64) []float64
}

// BatchClassifier is implemented by classifiers with a block-prediction
// fast path; elementwise identical to Predict.
type BatchClassifier interface {
	Classifier
	PredictBatch(xs []Vector) []bool
}

// ModelKind enumerates the nine Table-2 classifiers.
type ModelKind int

const (
	ModelNaiveBayes ModelKind = iota
	ModelLogReg
	ModelSVM
	ModelGBDT
	ModelKNN
	ModelCART
	ModelANN
	ModelDNN
	ModelRandomForest
)

// AllModelKinds lists the Table-2 classifiers in the paper's row order.
var AllModelKinds = []ModelKind{
	ModelNaiveBayes, ModelLogReg, ModelSVM, ModelGBDT, ModelKNN,
	ModelCART, ModelANN, ModelDNN, ModelRandomForest,
}

func (k ModelKind) String() string {
	names := [...]string{"Naive Bayes", "Logistic Regression", "SVM", "GBDT",
		"kNN", "CART", "ANN", "DNN", "Random Forest"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("ModelKind(%d)", int(k))
}

// NewClassifier builds a classifier of the given kind with the library's
// default hyperparameters (tuned once on held-out data, fixed thereafter —
// the paper configures hyperparameters from domain knowledge, §4.2).
func NewClassifier(kind ModelKind, seed int64) Classifier {
	switch kind {
	case ModelNaiveBayes:
		return NewNaiveBayes()
	case ModelLogReg:
		return NewLogReg(LinearConfig{Epochs: 30, LearningRate: 0.3, L2: 1e-5, Seed: seed})
	case ModelSVM:
		return NewSVM(SVMConfig{C: 1.0, Epochs: 12, Seed: seed})
	case ModelGBDT:
		return NewGBDT(GBDTConfig{Trees: 60, Depth: 4, LearningRate: 0.2, MinLeaf: 4, Seed: seed})
	case ModelKNN:
		return NewKNN(KNNConfig{K: 5})
	case ModelCART:
		return NewCART(CARTConfig{MaxDepth: 22, MinLeaf: 1})
	case ModelANN:
		return NewMLP("ANN", MLPConfig{Hidden: []int{32}, Epochs: 25, LearningRate: 0.05, Seed: seed})
	case ModelDNN:
		return NewMLP("DNN", MLPConfig{Hidden: []int{64, 32, 16}, Epochs: 30, LearningRate: 0.03, Seed: seed})
	case ModelRandomForest:
		return NewRandomForest(DefaultForestConfig(seed))
	default:
		panic(fmt.Sprintf("ml: unknown model kind %d", kind))
	}
}

var errNotTrained = fmt.Errorf("ml: classifier not trained")

func checkTrainable(d *Dataset) error {
	if d == nil || d.Len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	pos := d.Positives()
	if pos == 0 || pos == d.Len() {
		return fmt.Errorf("ml: training set has a single class (%d/%d positive)", pos, d.Len())
	}
	return nil
}
