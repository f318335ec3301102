// Package core is APICHECKER: the ML-powered malware vetting pipeline the
// paper deploys at T-Market (§5). A Checker owns the selected key-API set,
// the hook registry, the emulation engine, the feature extractor, and the
// trained random-forest model; Vet takes a submitted APK through
// install → Monkey exercise → hooked dynamic analysis → feature
// extraction → classification.
//
// The vet path itself lives in internal/pipeline as two drivers (Vet,
// Answer) over the stages admit → cache.lookup → triage → decode →
// emulate → extract → infer; the Checker wires them to its trained parts:
// Vet/VetOutcome/VetRun call Vet, AnswerHit calls Answer. Per-stage spans
// and counters land on the checker's obs.Collector.
//
// TrainFromCorpus reproduces the offline study pipeline (§4): measure API
// usage over the labelled corpus tracking everything, select the key APIs
// (Set-C ∪ Set-P ∪ Set-S), build A+P+I vectors, and train the classifier.
// Retrain implements the monthly model-evolution loop (§5.3).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"apichecker/internal/behavior"
	"apichecker/internal/dataset"
	"apichecker/internal/emulator"
	"apichecker/internal/features"
	"apichecker/internal/framework"
	"apichecker/internal/hook"
	"apichecker/internal/ml"
	"apichecker/internal/obs"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
	"apichecker/internal/wire"
)

// Submission, Verdict and the cached-verdict record are defined by the
// pipeline package (the stages operate on them directly); core aliases
// them so the public surface is unchanged by the refactor.
type (
	// Submission is one vetting request for the canonical Vet entrypoint.
	Submission = pipeline.Submission
	// Verdict is the outcome of vetting one submission.
	Verdict = pipeline.Verdict
)

// Config holds the deployment configuration: the model half every node
// serving a generation shares, and the node half each node sets for
// itself.
type Config struct {
	ModelConfig
	NodeConfig
}

// ModelConfig is the half of the configuration that shapes a verdict. It
// travels with the model: APKMODEL carries it (Fields is its codec), and a
// checker cold-started from an artifact serves under it.
type ModelConfig struct {
	// Events per Monkey exercise (paper: 5,000 ≈ 126 s base).
	Events int
	// Mode is the feature combination (deployed: A+P+I).
	Mode features.Mode
	// Selection tunes key-API selection.
	Selection features.SelectionConfig
	// Profile is the emulation engine (deployed: lightweight x86).
	Profile emulator.Profile
	// Forest configures the classifier.
	Forest ml.ForestConfig
	// Seed drives everything stochastic.
	Seed int64

	// TriageLo and TriageHi bound the tier-1 triage uncertainty band in
	// probability space: a submission whose static manifest-only triage
	// probability falls strictly outside [TriageLo, TriageHi] is answered
	// with a tier-1 verdict and never emulated; anything in the band pays
	// the full pipeline. The zero band (0, 0) means "not configured" and
	// disables the tier, as does the explicit full band [0, 1] — with
	// either, every verdict is bit-identical to a checker without triage.
	TriageLo float64
	TriageHi float64
}

// Fields lists every ModelConfig leaf, in encoding order, for both
// directions of its codec: the Profile chain is each engine's leaves
// followed by a bool saying whether a fallback engine follows. Decode into
// a zero ModelConfig, so that each fallback read is a new engine.
func (c *ModelConfig) Fields(f wire.Fields) {
	f.Int(&c.Events)
	f.U8((*uint8)(&c.Mode))
	f.F64(&c.Selection.SRCThreshold)
	f.F64(&c.Selection.SeldomFraction)
	for p := &c.Profile; ; p = p.Fallback {
		f.String(&p.Name)
		f.I64((*int64)(&p.PerEvent))
		f.I64((*int64)(&p.PerHook))
		f.F64(&p.SpeedSigma)
		f.F64(&p.SpeedMin)
		f.F64(&p.SpeedMax)
		f.Bool(&p.Hardened)
		f.Bool(&p.RealDevice)
		f.Bool(&p.CompatRisk)
		next := p.Fallback != nil
		f.Bool(&next)
		if !next {
			break
		}
		if p.Fallback == nil {
			p.Fallback = new(emulator.Profile)
		}
	}
	f.Int(&c.Forest.Trees)
	f.Int(&c.Forest.MaxDepth)
	f.Int(&c.Forest.MinLeaf)
	f.Int(&c.Forest.MTry)
	f.I64(&c.Forest.Seed)
	f.I64(&c.Seed)
	f.F64(&c.TriageLo)
	f.F64(&c.TriageHi)
}

// NodeConfig is the half of the configuration that decides where verdicts
// are kept, never what they are: each node sets its own, and no artifact
// carries it.
type NodeConfig struct {
	// VerdictCache bounds the digest-keyed verdict-memoization layer on
	// the serving path (entries, across all shards). 0 selects
	// vcache.DefaultCapacity; negative disables memoization entirely, so
	// every Vet pays a fresh emulation. Cached verdicts are bit-identical
	// to uncached ones (Monkey seeds derive from the content digest), so
	// the cache is semantically invisible either way.
	VerdictCache int

	// VerdictPersistDir enables the file-backed warm-start tier under the
	// verdict cache: memoized verdicts are appended to a log in this
	// directory, keyed by the serving model's digest, and replayed on the
	// next start if the serving model is unchanged, so a restarted node
	// resumes its hit rate without re-emulating. Empty disables
	// persistence; requires VerdictCache >= 0.
	VerdictPersistDir string
}

// triageBand normalizes the configured band: the zero band selects the
// trivial [0, 1], which disables the tier.
func (c ModelConfig) triageBand() (lo, hi float64) {
	if c.TriageLo == 0 && c.TriageHi == 0 {
		return 0, 1
	}
	return c.TriageLo, c.TriageHi
}

// checkTriageBand validates a probability-space uncertainty band.
func checkTriageBand(lo, hi float64) error {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo < 0 || hi > 1 || lo > hi {
		return fmt.Errorf("core: invalid triage band [%g, %g]: need 0 <= lo <= hi <= 1", lo, hi)
	}
	return nil
}

// DefaultConfig is the production configuration from the paper.
func DefaultConfig() Config {
	return Config{ModelConfig: ModelConfig{
		Events:    5000,
		Mode:      features.ModeAPI,
		Selection: features.DefaultSelectionConfig(),
		Profile:   emulator.LightweightEmulator,
		Forest:    ml.DefaultForestConfig(1),
		Seed:      1,
	}}
}

// Checker is a trained vetting pipeline. Its trained parts — universe,
// key-API selection, extractor, the emulation engine hooked for those
// keys, and forest — live together in one immutable generation behind an
// atomic pointer; SwapModel replaces the whole set in a single pointer
// flip, so in-flight vets finish on the generation they pinned while new
// submissions pick up the replacement.
type Checker struct {
	cfg Config

	// gen is the serving model generation. Vets pin it once per
	// submission (inside the cache singleflight) and never look back;
	// SwapModel is the only writer, serialized on swapMu.
	gen    atomic.Pointer[pipeline.ModelGen]
	swapMu sync.Mutex

	// cache memoizes complete verdicts (plus their feature vectors) by
	// content digest, with singleflight dedupe of concurrent identical
	// submissions; nil when cfg.VerdictCache < 0. SwapModel advances its
	// epoch so no verdict from a previous model generation is ever served.
	// Entries are flat pipeline.EncodeEntry buffers, so a million cached
	// verdicts are a million GC-opaque byte slices, not pointer graphs.
	cache *vcache.Cache[[]byte]

	// persist is the optional file-backed warm-start tier under the cache;
	// nil unless cfg.VerdictPersistDir is set.
	persist *vcache.PersistLog

	// obs is the checker's observability spine: one span per completed
	// stage, plus the emulator-reliability and verdict-cache counters and
	// the model.generation gauge.
	obs *obs.Collector

	// deps drives the vet path over the serving generation, the cache and
	// obs.
	deps pipeline.Deps

	vetCount int64
}

// genInfo summarizes a generation for the public surface.
func genInfo(g *pipeline.ModelGen) GenerationInfo {
	return GenerationInfo{
		ID:        g.ID,
		Digest:    g.Digest,
		SwappedAt: g.SwappedAt,
		KeyAPIs:   len(g.Selection.Keys),
	}
}

// GenerationInfo identifies the serving model generation.
type GenerationInfo struct {
	// ID is the swap counter: 1 for a freshly assembled checker,
	// incremented by every SwapModel. Verdicts carry the ID of the
	// generation that produced them.
	ID uint64
	// Digest is the hex sha256 of the generation's artifact bytes: the
	// APKMODEL encoding of exactly the parts and model config it serves,
	// always set.
	Digest string
	// SwappedAt is when this generation started serving.
	SwappedAt time.Time
	// KeyAPIs is the size of the generation's key-API selection.
	KeyAPIs int
}

// ModelParts is a complete set of trained parts for SwapModel (and the
// constructors): the universe the ids refer to, the key-API selection, the
// extractor built over it, and the trained forest.
type ModelParts struct {
	Universe  *framework.Universe
	Selection *features.Selection
	Extractor *features.Extractor
	Model     *ml.RandomForest

	// Triage is the tier-1 manifest-only linear scorer, trained alongside
	// the forest over the same corpus and promoted/rolled back with it —
	// the two models are one generation and swap in a single pointer flip.
	// nil disables the tier regardless of the configured band.
	Triage *ml.Linear
}

// TrainReport summarizes a training (or retraining) round.
type TrainReport struct {
	KeyAPIs    int
	SetC       int
	SetP       int
	SetS       int
	Features   int
	TrainTime  time.Duration
	UsageTime  time.Duration // corpus measurement pass
	CorpusSize int

	// EmulationRuns counts emulator executions this round paid for; with
	// the run cache warmable single-pass pipeline this is the corpus size
	// (plus fallback re-runs), not twice it.
	EmulationRuns int64
}

// TrainFromCorpus builds a Checker from a labelled corpus in a single
// emulation pass: the §4.3 measurement pass tracks every hookable API, and
// because a full-tracking log is a strict superset of any key-API log, the
// A+P+I training vectors are projected from the retained measurement
// results instead of re-emulating the corpus under the selected keys (the
// pre-cache pipeline emulated twice). Training vectors therefore come from
// the hardened study engine the ground-truth logs were collected on, as in
// the paper's offline study; cfg.Profile selects the engine submissions
// are vetted on.
func TrainFromCorpus(c *dataset.Corpus, cfg Config) (*Checker, *TrainReport, error) {
	parts, rep, err := trainParts(c, cfg.ModelConfig)
	if err != nil {
		return nil, nil, err
	}
	ck, err := NewFromParts(parts, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ck, rep, nil
}

// trainParts runs the full §4 study pipeline over a labelled corpus and
// returns the trained parts without assembling a checker — the shared body
// of TrainFromCorpus (fresh checker) and Retrain (hot-swap into a serving
// one).
func trainParts(c *dataset.Corpus, cfg ModelConfig) (ModelParts, *TrainReport, error) {
	if cfg.Events <= 0 {
		return ModelParts{}, nil, fmt.Errorf("core: events must be positive")
	}
	rep := &TrainReport{CorpusSize: c.Len()}
	runs0 := emulator.RunCount()

	start := time.Now()
	usage, _, err := c.CollectUsage(cfg.Events)
	if err != nil {
		return ModelParts{}, nil, fmt.Errorf("core: usage collection: %w", err)
	}
	rep.UsageTime = time.Since(start)

	sel := features.SelectKeyAPIs(c.Universe(), usage, cfg.Selection)
	rep.SetC, rep.SetP, rep.SetS = len(sel.SetC), len(sel.SetP), len(sel.SetS)
	rep.KeyAPIs = len(sel.Keys)

	ex, err := features.NewExtractor(c.Universe(), sel.Keys, cfg.Mode)
	if err != nil {
		return ModelParts{}, nil, fmt.Errorf("core: %w", err)
	}
	rep.Features = ex.NumFeatures()

	d, err := c.VectorizeMeasured(ex, cfg.Events)
	if err != nil {
		return ModelParts{}, nil, fmt.Errorf("core: vectorize: %w", err)
	}
	rep.EmulationRuns = emulator.RunCount() - runs0

	fc := cfg.Forest
	fc.Seed = cfg.Seed
	model := ml.NewRandomForest(fc)
	start = time.Now()
	if err := model.Train(d); err != nil {
		return ModelParts{}, nil, fmt.Errorf("core: train: %w", err)
	}
	rep.TrainTime = time.Since(start)

	triage, err := trainTriage(c, cfg)
	if err != nil {
		return ModelParts{}, nil, err
	}

	return ModelParts{Universe: c.Universe(), Selection: sel, Extractor: ex, Model: model, Triage: triage}, rep, nil
}

// trainTriage fits the tier-1 linear scorer over the corpus's manifest-only
// P+I view — exactly the view the triage stage scores at serving time (no
// hook log, no dex, no emulation). Trained unconditionally: the model is
// cheap, travels with the generation, and serves only when a non-trivial
// band is configured.
func trainTriage(c *dataset.Corpus, cfg ModelConfig) (*ml.Linear, error) {
	tex, err := features.NewTriageExtractor(c.Universe())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	td := ml.NewDataset(tex.NumFeatures())
	for i := 0; i < c.Len(); i++ {
		m, err := c.Program(i).Manifest(c.Universe())
		if err != nil {
			return nil, fmt.Errorf("core: triage manifest: %w", err)
		}
		x, err := tex.ManifestVectorInto(m, nil)
		if err != nil {
			return nil, fmt.Errorf("core: triage vectorize: %w", err)
		}
		if err := td.Add(x, c.Apps[i].Label == behavior.Malicious); err != nil {
			return nil, fmt.Errorf("core: triage dataset: %w", err)
		}
	}
	triage, err := ml.TrainLinear(td, ml.DefaultLinearConfig(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("core: triage train: %w", err)
	}
	return triage, nil
}

// NewFromParts assembles a Checker from one complete set of trained parts
// (TrainFromCorpus, and every path that loads a model artifact): it builds
// the hook registry, the emulation engine, the verdict cache and the obs
// collector, and wires them to the vet drivers. parts.Triage is optional.
func NewFromParts(parts ModelParts, cfg Config) (*Checker, error) {
	ck := &Checker{cfg: cfg, obs: obs.NewCollector()}
	if cfg.VerdictCache >= 0 {
		ck.cache = vcache.NewObserved[[]byte](cfg.VerdictCache, ck.obs)
		ck.cache.SetSizeOf(func(e []byte) int { return len(e) })
	}
	g, err := newGeneration(parts, cfg.ModelConfig, 1)
	if err != nil {
		return nil, err
	}
	ck.gen.Store(g)
	ck.obs.Gauge("model.generation").Set(1)
	ck.deps = pipeline.Deps{
		Gen:     ck.gen.Load,
		Cache:   ck.cache,
		NextSeq: ck.nextVetSeq,
		Obs:     ck.obs,
		Events:  cfg.Events,
		Seed:    cfg.Seed,
	}
	if cfg.VerdictPersistDir != "" {
		if err := ck.attachPersist(cfg.VerdictPersistDir); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// newGeneration assembles an immutable generation from trained parts under
// cfg, with the emulation engine over a hook registry for the selected
// keys, and encodes (parts, cfg) once into the artifact bytes whose digest
// identifies it.
func newGeneration(parts ModelParts, cfg ModelConfig, id uint64) (*pipeline.ModelGen, error) {
	if parts.Universe == nil || parts.Selection == nil || parts.Extractor == nil || parts.Model == nil {
		return nil, fmt.Errorf("core: incomplete model parts")
	}
	lo, hi := cfg.triageBand()
	if err := checkTriageBand(lo, hi); err != nil {
		return nil, err
	}
	a, err := FromParts(parts, cfg)
	if err != nil {
		return nil, err
	}
	data, err := a.Encode()
	if err != nil {
		return nil, err
	}
	reg, err := hook.NewRegistry(parts.Universe, parts.Selection.Keys)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	emu := emulator.New(cfg.Profile, reg)
	trees := cfg.Forest.Trees
	if trees <= 0 {
		trees = ml.DefaultForestConfig(cfg.Seed).Trees
	}
	g := &pipeline.ModelGen{
		ID:        id,
		Digest:    ArtifactDigest(data),
		Artifact:  data,
		Universe:  parts.Universe,
		Selection: parts.Selection,
		Extractor: parts.Extractor,
		Run:       emu.RunScratch,
		Model:     parts.Model,
		Trees:     trees,
		TriageLo:  lo,
		TriageHi:  hi,
		SwappedAt: time.Now(),
	}
	if parts.Triage != nil {
		tex, err := features.NewTriageExtractor(parts.Universe)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		g.Triage = parts.Triage
		g.TriageExtractor = tex
	}
	return g, nil
}

// SwapModel atomically replaces the serving generation with freshly
// trained parts — the zero-downtime promotion primitive. The swap is a
// single generation-pointer flip: in-flight vets finish wholly on the
// generation they pinned, new submissions pin the replacement, and no vet
// ever mixes feature extraction and scoring across generations. The
// verdict-cache epoch advances exactly once per swap, after the pointer
// flip, so the cache can never serve a previous generation's verdict.
// Swaps serialize on an internal mutex; the serving path never blocks on
// one. Returns the new generation's identity.
func (ck *Checker) SwapModel(parts ModelParts) (GenerationInfo, error) {
	ck.swapMu.Lock()
	defer ck.swapMu.Unlock()
	return ck.swap(parts, ck.cfg.ModelConfig)
}

// Adopt installs an artifact's generation: its parts under its whole model
// config, in one swap, so the serving generation's digest is the
// artifact's. A rollback and a node that learns of a newer generation
// both take this path.
func (ck *Checker) Adopt(a *Artifact) (GenerationInfo, error) {
	parts, err := a.Parts()
	if err != nil {
		return GenerationInfo{}, err
	}
	ck.swapMu.Lock()
	defer ck.swapMu.Unlock()
	return ck.swap(parts, a.Model)
}

// swap publishes parts as the next generation under cfg, which becomes the
// checker's model config. The caller holds swapMu.
func (ck *Checker) swap(parts ModelParts, cfg ModelConfig) (GenerationInfo, error) {
	g, err := newGeneration(parts, cfg, ck.gen.Load().ID+1)
	if err != nil {
		return GenerationInfo{}, err
	}
	ck.cfg.ModelConfig = cfg
	// Publish, then bump the cache epoch, in that order: Cache.Do stores a
	// leader's verdict only if the epoch it started under is still current
	// when the computation returns. A leader that pinned the old generation
	// did so before this publish, so before the bump, and its store is
	// refused; the reverse order would let a leader start under the new
	// epoch, pin the old generation, and store its verdict.
	ck.gen.Store(g)
	if ck.cache != nil {
		ck.cache.BumpEpoch()
	}
	// The on-disk tier invalidates with the in-memory one: re-key the log
	// to the new generation after the epoch bump, so anything appended for
	// the old epoch is gone and nothing stale survives a restart.
	ck.resetPersist()
	ck.obs.Gauge("model.generation").Set(int64(g.ID))
	ck.obs.Counter("model.swaps").Inc()
	return genInfo(g), nil
}

// Generation identifies the serving model generation: its swap counter
// (matching Verdict.Generation), artifact digest, promotion time, and
// key-API count.
func (ck *Checker) Generation() GenerationInfo { return genInfo(ck.gen.Load()) }

// ArtifactBytes returns the serving generation's identity and its
// artifact bytes, both read from one generation. The bytes are shared
// with the generation: read them, never write them.
func (ck *Checker) ArtifactBytes() (GenerationInfo, []byte) {
	g := ck.gen.Load()
	return genInfo(g), g.Artifact
}

// Parts returns the serving generation's trained parts as one consistent
// snapshot — a concurrent swap cannot tear it the way separate
// Universe()/Selection()/Model() calls could. This is what model
// snapshotting serializes.
func (ck *Checker) Parts() ModelParts {
	g := ck.gen.Load()
	return ModelParts{
		Universe:  g.Universe,
		Selection: g.Selection,
		Extractor: g.Extractor,
		Model:     g.Model,
		Triage:    g.Triage,
	}
}

// Universe returns the serving generation's framework universe.
func (ck *Checker) Universe() *framework.Universe { return ck.gen.Load().Universe }

// Selection returns the serving generation's key-API selection.
func (ck *Checker) Selection() *features.Selection { return ck.gen.Load().Selection }

// Extractor returns the serving generation's feature extractor.
func (ck *Checker) Extractor() *features.Extractor { return ck.gen.Load().Extractor }

// Model returns the serving generation's trained forest.
func (ck *Checker) Model() *ml.RandomForest { return ck.gen.Load().Model }

// Config returns the deployment config.
func (ck *Checker) Config() Config {
	ck.swapMu.Lock()
	defer ck.swapMu.Unlock()
	return ck.cfg
}

// TriageBand returns the serving generation's normalized tier-1
// uncertainty band.
func (ck *Checker) TriageBand() (lo, hi float64) {
	g := ck.gen.Load()
	return g.TriageLo, g.TriageHi
}

// SetTriageBand reconfigures the tier-1 uncertainty band and republishes
// the serving generation under it, with full swap semantics: the
// generation counter advances and the verdict-cache epoch bumps exactly
// once, invalidating every memoized verdict — the tier split of cached
// verdicts depended on the old band, so none of them may survive it. The
// trivial band [0, 1] (or the zero band) turns the tier off.
func (ck *Checker) SetTriageBand(lo, hi float64) (GenerationInfo, error) {
	if lo == 0 && hi == 0 {
		lo, hi = 0, 1
	}
	ck.swapMu.Lock()
	defer ck.swapMu.Unlock()
	cfg := ck.cfg.ModelConfig
	cfg.TriageLo, cfg.TriageHi = lo, hi
	return ck.swap(ck.Parts(), cfg)
}

// Obs returns the checker's observability collector: per-stage spans and
// latency distributions, verdict-cache counters, and emulator-reliability
// counters. Attach a sink to stream per-submission span events.
func (ck *Checker) Obs() *obs.Collector { return ck.obs }

// StageStats summarizes per-stage span accounting (count, errors, and
// virtual-latency quantiles) in first-seen stage order.
func (ck *Checker) StageStats() []obs.StageStats { return ck.obs.StageStats() }

// Vet is the single canonical vetting entrypoint: every other Vet* method
// is a thin wrapper over it. The context bounds the emulation — a deadline
// or cancellation aborts the run at the next crash-restart or event-batch
// boundary, surfacing as an error wrapping ErrDeadlineExceeded (and
// context.DeadlineExceeded) or context.Canceled; pipeline.FailedStage
// reports which stage the vet died in. Safe for concurrent use: the
// emulator, extractor and model are read-only at vet time, so every
// payload kind runs concurrently on the pinned generation's engine, as
// many at once as the caller's own lanes allow.
//
// Vet consults the digest-keyed verdict cache first: a byte-identical
// resubmission is answered without re-emulating, and N concurrent
// submissions of the same digest trigger exactly one emulation (the rest
// block on the leader's result). Cached verdicts are bit-identical to
// emulated ones because the Monkey seed derives from the content digest.
func (ck *Checker) Vet(ctx context.Context, sub Submission) (*Verdict, error) {
	v, _, _, err := ck.vet(ctx, &sub, false)
	return v, err
}

// VetOutcome is Vet, additionally reporting how the verdict was served:
// OutcomeMiss (this call paid the emulation), OutcomeHit (answered from
// the cache), OutcomeCoalesced (deduplicated onto a concurrent identical
// submission), or OutcomeBypass (cache disabled or payload undigestable).
func (ck *Checker) VetOutcome(ctx context.Context, sub Submission) (*Verdict, vcache.Outcome, error) {
	v, out, _, err := ck.vet(ctx, &sub, false)
	return v, out, err
}

// VetRun is Vet, additionally returning the raw emulation result (the
// input to analysis-log export). The result is the caller's: a sealed copy
// of the run, which itself lives in scratch the next vet reuses. It is nil
// when the verdict was served without emulating — a cache hit, a coalesced
// follower, or a tier-1 triage verdict; a caller that needs every
// submission emulated builds its checker with the cache off
// (VerdictCache < 0) and no triage band.
func (ck *Checker) VetRun(ctx context.Context, sub Submission) (*Verdict, *emulator.Result, error) {
	v, _, run, err := ck.vet(ctx, &sub, true)
	return v, run, err
}

// vet drives one submission through pipeline.Deps.Vet on a pooled context:
// the one body of Vet, VetOutcome and VetRun. The Verdict is never
// pool-backed, so it is returned past the release; the emulation result
// is, so it is copied out when keepRun asks for it, and nil otherwise.
func (ck *Checker) vet(ctx context.Context, sub *Submission, keepRun bool) (*Verdict, vcache.Outcome, *emulator.Result, error) {
	vc := pipeline.AcquireContext(ctx, sub)
	defer pipeline.ReleaseContext(vc)
	if err := ck.deps.Vet(vc); err != nil {
		return nil, vc.Outcome, nil, ck.vetError(vc, err)
	}
	var run *emulator.Result
	if keepRun && vc.Run != nil {
		run = vc.Run.Clone()
	}
	return vc.Verdict, vc.Outcome, run, nil
}

// Hit is a verdict-cache entry LookupHit found for a submission, held
// until AnswerHit answers the submission from it.
type Hit struct{ entry []byte }

// LookupHit probes the verdict cache for sub's content digest under the
// current model generation, for a caller that sequences a submission only
// once it knows whether the submission needs a vet. It runs no stage: a
// miss counts and emits nothing, and a hit counts one cache hit. The
// digest is memoized on sub.
func (ck *Checker) LookupHit(sub *Submission) (Hit, bool) {
	if ck.cache == nil {
		return Hit{}, false
	}
	e, ok := ck.cache.Hit(sub.ContentDigest()) // an undigestable payload's "" is never found
	return Hit{entry: e}, ok
}

// AnswerHit answers sub from the entry LookupHit found. It runs the admit
// stage and the hit half of the cache lookup on the calling goroutine, so
// a submission answered this way records the same admit and cache.lookup
// spans (note "hit"), traced under sub.Seq, and gets the same verdict as
// one answered by a cache hit inside Vet. Nothing is decoded or emulated.
func (ck *Checker) AnswerHit(ctx context.Context, sub Submission, h Hit) (*Verdict, error) {
	vc := pipeline.AcquireContext(ctx, &sub)
	defer pipeline.ReleaseContext(vc)
	if err := ck.deps.Answer(vc, h.entry); err != nil {
		return nil, ck.vetError(vc, err)
	}
	return vc.Verdict, nil
}

// vetError shapes a vet failure for the public surface: admission
// failures (ErrBadSubmission) pass through exactly as Validate raised
// them; everything else is wrapped with the vet prefix and the submission
// label. The stage attribution survives — pipeline.FailedStage still
// reports the dying stage through the wrap.
func (ck *Checker) vetError(vc *pipeline.VetContext, err error) error {
	if errors.Is(err, ErrBadSubmission) {
		return err
	}
	return fmt.Errorf("core: vet %s: %w", vc.PackageLabel(), err)
}

// VetCount returns how many submissions the checker has vetted (or has
// reserved sequence numbers for).
func (ck *Checker) VetCount() int64 { return atomic.LoadInt64(&ck.vetCount) }

// ReserveVetSeqs atomically reserves n consecutive vet sequence numbers
// and returns the first. Parallel review pools reserve up front and assign
// sequences by queue position, so service logs and metrics identify
// submissions the way a serial review would have numbered them. (Verdicts
// themselves no longer depend on sequence numbers — the Monkey seed
// derives from the content digest; see pipeline.Deps.MonkeyFor.)
func (ck *Checker) ReserveVetSeqs(n int) int64 {
	return atomic.AddInt64(&ck.vetCount, int64(n)) - int64(n) + 1
}

// nextVetSeq reserves the next single sequence number.
func (ck *Checker) nextVetSeq() int64 { return atomic.AddInt64(&ck.vetCount, 1) }

// CacheStats snapshots the verdict-cache counters; the zero Stats when
// the cache is disabled.
func (ck *Checker) CacheStats() vcache.Stats {
	if ck.cache == nil {
		return vcache.Stats{}
	}
	return ck.cache.Stats()
}
