// Package lifecycle is the model-evolution control plane over a serving
// checker (§5.3's monthly retraining, made a first-class subsystem): it
// snapshots the serving generation into a modelstore registry, cold-starts
// a checker from the latest good generation, retrains challengers off the
// serving path, shadow-scores them against the champion on a held-out
// slice through the existing pipeline stages, and promotes only when the
// quality gates pass — as a single atomic hot-swap (core.Checker.SwapModel)
// that in-flight vets never observe mid-change. Explicit Rollback restores
// any prior generation the registry holds.
//
// Every step books onto the checker's obs spine: lifecycle.train,
// lifecycle.shadow, lifecycle.promote spans; lifecycle.trains,
// lifecycle.promotions, lifecycle.rejections, lifecycle.rollbacks
// counters; and the model.generation gauge core maintains at each swap.
package lifecycle

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"apichecker/internal/behavior"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/ml"
	"apichecker/internal/modelstore"
	"apichecker/internal/obs"
)

// ErrGateFailed marks an evolution whose challenger did not clear the
// promotion gates; the champion keeps serving and the registry is
// untouched. Evolve reports it through EvolveResult, not as an error —
// a rejected challenger is a normal outcome, not a failure.
var ErrGateFailed = errors.New("lifecycle: challenger failed promotion gates")

// GateConfig is the promotion quality bar: the challenger is promoted
// only when its held-out F1 and AUC are within the configured drop of the
// champion's (negative drops demand improvement), measured over at least
// MinHoldout apps.
type GateConfig struct {
	// MaxF1Drop is how much held-out F1 the challenger may lose versus
	// the champion and still promote.
	MaxF1Drop float64
	// MaxAUCDrop is the same bar for ROC AUC.
	MaxAUCDrop float64
	// MinHoldout is the smallest held-out slice the shadow evaluation
	// may gate on.
	MinHoldout int
	// HoldoutFraction is the slice of the corpus held out of challenger
	// training for the shadow evaluation (default 0.2).
	HoldoutFraction float64
}

// DefaultGateConfig tolerates small regressions (retraining on a shifted
// app mix wobbles the metrics) but blocks real quality losses.
func DefaultGateConfig() GateConfig {
	return GateConfig{MaxF1Drop: 0.05, MaxAUCDrop: 0.05, MinHoldout: 30, HoldoutFraction: 0.2}
}

// ShadowReport is one champion-vs-challenger evaluation on the held-out
// slice, scored through the full vet pipeline of each.
type ShadowReport struct {
	Holdout int

	Champion   Scorecard
	Challenger Scorecard

	// F1Drop and AUCDrop are champion minus challenger (positive =
	// challenger worse).
	F1Drop  float64
	AUCDrop float64

	Pass   bool
	Reason string // why the gates failed, empty on pass
}

// Scorecard is one model's held-out quality.
type Scorecard struct {
	Precision float64
	Recall    float64
	F1        float64
	AUC       float64
}

// EvolveResult is one background-evolution round.
type EvolveResult struct {
	Promoted bool
	// Digest is the stored challenger artifact's digest when promoted
	// (empty on rejection — a rejected challenger is never stored).
	Digest string
	// Generation is the serving generation after the round.
	Generation core.GenerationInfo
	Report     *core.TrainReport
	Shadow     ShadowReport
}

// State is the lifecycle view tmarket surfaces: the serving generation,
// its registry digest, and the evolution history counters.
type State struct {
	Generation    core.GenerationInfo
	CurrentDigest string
	LastPromotion time.Time
	LastShadow    *ShadowReport

	Trains     uint64
	Promotions uint64
	Rejections uint64
	Rollbacks  uint64
}

// Manager drives one checker's model lifecycle against one registry.
// Evolve/Rollback/Snapshot serialize on an internal mutex (one evolution
// at a time); the serving path never blocks on any of them.
type Manager struct {
	ck    *core.Checker
	reg   *modelstore.Registry
	gates GateConfig

	mu            sync.Mutex
	currentDigest string
	lastPromotion time.Time
	lastShadow    *ShadowReport
}

// NewManager wires a manager over a serving checker and an open registry.
// The serving generation is the next snapshot's parent only when the
// registry holds it; otherwise that snapshot is a root.
func NewManager(ck *core.Checker, reg *modelstore.Registry, gates GateConfig) *Manager {
	if gates.HoldoutFraction <= 0 || gates.HoldoutFraction >= 1 {
		gates.HoldoutFraction = DefaultGateConfig().HoldoutFraction
	}
	m := &Manager{ck: ck, reg: reg, gates: gates}
	dig := ck.Generation().Digest
	if _, err := reg.Manifest(dig); err == nil {
		m.currentDigest = dig
	}
	return m
}

// Checker returns the serving checker.
func (m *Manager) Checker() *core.Checker { return m.ck }

// Registry returns the backing registry.
func (m *Manager) Registry() *modelstore.Registry { return m.reg }

// Snapshot persists the serving generation to the registry and marks it
// current — the cold-start anchor a fresh tmarket restores from.
func (m *Manager) Snapshot(note string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := core.Snapshot(m.ck)
	if err != nil {
		return "", err
	}
	dig, err := m.reg.Put(a, modelstore.Manifest{Note: note, Parent: m.currentDigest})
	if err != nil {
		return "", err
	}
	if err := m.reg.SetCurrent(dig); err != nil {
		return "", err
	}
	m.currentDigest = dig
	return dig, nil
}

// ColdStart restores a serving checker from the registry's current
// generation under the default node config. Verdicts are bit-identical to
// the checker that snapshotted it: the universe is replayed from its
// recorded generation, and Monkey seeds derive from submission content.
func ColdStart(reg *modelstore.Registry) (*core.Checker, modelstore.Manifest, error) {
	a, man, err := reg.Current()
	if err != nil {
		return nil, modelstore.Manifest{}, err
	}
	ck, err := a.Instantiate(core.NodeConfig{})
	if err != nil {
		return nil, modelstore.Manifest{}, err
	}
	return ck, man, nil
}

// Evolve is one background-evolution round: split the refreshed corpus
// into train/holdout, train a challenger off the serving path, shadow-
// score challenger vs champion on the holdout through each one's vet
// pipeline, and promote the challenger — registry write, CURRENT flip,
// atomic hot-swap — only if the quality gates pass. A rejected challenger
// leaves the champion serving and the registry untouched.
//
// The corpus must be bound to the serving checker's universe.
func (m *Manager) Evolve(ctx context.Context, c *dataset.Corpus) (*EvolveResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	col := m.ck.Obs()
	trainApps, holdoutIdx := splitCorpus(c, m.gates)
	if len(holdoutIdx) < m.gates.MinHoldout {
		return nil, fmt.Errorf("lifecycle: holdout %d below gate minimum %d", len(holdoutIdx), m.gates.MinHoldout)
	}
	trainCorpus := dataset.FromApps(c.Universe(), c.Config().Seed, trainApps)

	// Train the challenger as a complete standalone checker: its shadow
	// vets run through the same pipeline stages production verdicts do,
	// under the champion's model config and a node config of its own —
	// nothing touches the serving path, its cache or its persist log.
	model := m.ck.Config().ModelConfig
	start := time.Now()
	challenger, rep, err := core.TrainFromCorpus(trainCorpus, core.Config{ModelConfig: model})
	dur := time.Since(start)
	col.Counter("lifecycle.trains").Inc()
	emitSpan(col, "lifecycle.train", dur, fmt.Sprintf("corpus=%d", trainCorpus.Len()), err)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: train challenger: %w", err)
	}

	start = time.Now()
	shadow, err := m.shadowEval(ctx, challenger, c, holdoutIdx)
	emitSpan(col, "lifecycle.shadow", time.Since(start),
		fmt.Sprintf("holdout=%d pass=%t", shadow.Holdout, shadow.Pass), err)
	if err != nil {
		return nil, err
	}
	m.lastShadow = &shadow

	res := &EvolveResult{Report: rep, Shadow: shadow}
	if !shadow.Pass {
		col.Counter("lifecycle.rejections").Inc()
		res.Generation = m.ck.Generation()
		return res, nil
	}

	// Promotion: store the artifact, flip CURRENT, hot-swap. The swap is
	// last, so a crash between registry write and swap leaves a registry
	// that simply cold-starts into the (gated, good) challenger.
	start = time.Now()
	parts := challenger.Parts()
	a, err := core.FromParts(parts, model)
	if err != nil {
		return nil, err
	}
	dig, err := m.reg.Put(a, modelstore.Manifest{
		Parent:            m.currentDigest,
		CorpusFingerprint: Fingerprint(c),
		TrainReport:       rep,
		Note:              "promoted",
		Quality: &modelstore.Quality{
			Precision: shadow.Challenger.Precision,
			Recall:    shadow.Challenger.Recall,
			F1:        shadow.Challenger.F1,
			AUC:       shadow.Challenger.AUC,
			Holdout:   shadow.Holdout,
		},
	})
	if err != nil {
		return nil, err
	}
	if err := m.reg.SetCurrent(dig); err != nil {
		return nil, err
	}
	gen, err := m.ck.SwapModel(parts)
	emitSpan(col, "lifecycle.promote", time.Since(start), shortDigest(dig), err)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: promote: %w", err)
	}
	col.Counter("lifecycle.promotions").Inc()
	m.currentDigest = dig
	m.lastPromotion = time.Now()
	res.Promoted = true
	res.Digest = dig
	res.Generation = gen
	return res, nil
}

// Rollback restores a prior generation from the registry: the artifact is
// adopted — its parts under its whole model config, in one swap that bumps
// the verdict-cache epoch exactly once — and marked current.
func (m *Manager) Rollback(digest string) (core.GenerationInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	col := m.ck.Obs()
	a, _, err := m.reg.Load(digest)
	if err != nil {
		return core.GenerationInfo{}, err
	}
	start := time.Now()
	gen, err := m.ck.Adopt(a)
	emitSpan(col, "lifecycle.rollback", time.Since(start), shortDigest(digest), err)
	if err != nil {
		return core.GenerationInfo{}, fmt.Errorf("lifecycle: rollback: %w", err)
	}
	if err := m.reg.SetCurrent(digest); err != nil {
		return core.GenerationInfo{}, err
	}
	col.Counter("lifecycle.rollbacks").Inc()
	m.currentDigest = digest
	m.lastPromotion = time.Now()
	return gen, nil
}

// State snapshots the lifecycle for metrics/trace surfaces.
func (m *Manager) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	col := m.ck.Obs()
	return State{
		Generation:    m.ck.Generation(),
		CurrentDigest: m.currentDigest,
		LastPromotion: m.lastPromotion,
		LastShadow:    m.lastShadow,
		Trains:        col.Counter("lifecycle.trains").Load(),
		Promotions:    col.Counter("lifecycle.promotions").Load(),
		Rejections:    col.Counter("lifecycle.rejections").Load(),
		Rollbacks:     col.Counter("lifecycle.rollbacks").Load(),
	}
}

// shadowEval vets every held-out app through both checkers' pipelines and
// scores the gates.
func (m *Manager) shadowEval(ctx context.Context, challenger *core.Checker,
	c *dataset.Corpus, holdoutIdx []int) (ShadowReport, error) {
	labels := make([]bool, len(holdoutIdx))
	champScores := make([]float64, len(holdoutIdx))
	challScores := make([]float64, len(holdoutIdx))
	var champConf, challConf ml.Confusion

	for i, idx := range holdoutIdx {
		labels[i] = c.Apps[idx].Label == behavior.Malicious
		sub := core.Submission{Program: c.Program(idx)}

		cv, err := m.ck.Vet(ctx, sub)
		if err != nil {
			return ShadowReport{}, fmt.Errorf("lifecycle: shadow champion vet: %w", err)
		}
		nv, err := challenger.Vet(ctx, sub)
		if err != nil {
			return ShadowReport{}, fmt.Errorf("lifecycle: shadow challenger vet: %w", err)
		}
		champScores[i], challScores[i] = cv.Score, nv.Score
		champConf.Observe(cv.Malicious, labels[i])
		challConf.Observe(nv.Malicious, labels[i])
	}

	rep := ShadowReport{
		Holdout: len(holdoutIdx),
		Champion: Scorecard{
			Precision: champConf.Precision(), Recall: champConf.Recall(),
			F1: champConf.F1(), AUC: ml.AUCScores(champScores, labels),
		},
		Challenger: Scorecard{
			Precision: challConf.Precision(), Recall: challConf.Recall(),
			F1: challConf.F1(), AUC: ml.AUCScores(challScores, labels),
		},
	}
	rep.F1Drop = rep.Champion.F1 - rep.Challenger.F1
	rep.AUCDrop = rep.Champion.AUC - rep.Challenger.AUC
	switch {
	case rep.Holdout < m.gates.MinHoldout:
		rep.Reason = fmt.Sprintf("holdout %d < %d", rep.Holdout, m.gates.MinHoldout)
	case rep.F1Drop > m.gates.MaxF1Drop:
		rep.Reason = fmt.Sprintf("F1 drop %.4f exceeds %.4f", rep.F1Drop, m.gates.MaxF1Drop)
	case rep.AUCDrop > m.gates.MaxAUCDrop:
		rep.Reason = fmt.Sprintf("AUC drop %.4f exceeds %.4f", rep.AUCDrop, m.gates.MaxAUCDrop)
	default:
		rep.Pass = true
	}
	return rep, nil
}

// splitCorpus deals every k-th app to the holdout (stride split:
// deterministic, label-mix preserving for the generators' interleaved
// label layout). Train apps are returned directly; holdout apps as corpus
// indices so the shadow evaluation reuses the corpus's own programs.
func splitCorpus(c *dataset.Corpus, gates GateConfig) (train []dataset.App, holdoutIdx []int) {
	k := int(1 / gates.HoldoutFraction)
	if k < 2 {
		k = 2
	}
	for i, app := range c.Apps {
		if i%k == k-1 {
			holdoutIdx = append(holdoutIdx, i)
		} else {
			train = append(train, app)
		}
	}
	return train, holdoutIdx
}

// Fingerprint identifies a labelled corpus: sha256 over every app's
// canonical program encoding and label, so a registry manifest records
// exactly which data trained the generation.
func Fingerprint(c *dataset.Corpus) string {
	h := sha256.New()
	for i := range c.Apps {
		p := c.Program(i)
		if data, err := p.Encode(); err == nil {
			h.Write(data)
		}
		if c.Apps[i].Label == behavior.Malicious {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// emitSpan books one lifecycle phase span on the obs spine.
func emitSpan(col *obs.Collector, name string, dur time.Duration, note string, err error) {
	col.Emit(obs.Event{Kind: obs.KindSpan, Name: name, Dur: dur, Note: note, Err: err})
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
