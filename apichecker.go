// Package apichecker is a faithful, self-contained reproduction of
// APICHECKER, the market-scale ML-powered Android malware detection system
// of "Experiences of Landing Machine Learning onto Market-Scale Mobile
// Malware Detection" (EuroSys 2020).
//
// The package is the public facade over the implementation:
//
//   - a synthetic Android framework universe (~50K APIs with permissions,
//     intents, hidden APIs and a dependency graph),
//   - an APK substrate (manifest + dex + behaviour programs),
//   - a dynamic-analysis engine (emulator profiles with a calibrated
//     virtual clock, Xposed-style hooking, Monkey UI exercising),
//   - a from-scratch ML library (the nine classifiers of Table 2),
//   - the APICHECKER pipeline (key-API selection, A+P+I features, random
//     forest, monthly model evolution),
//   - a T-Market simulation (antivirus consensus, FP/FN workflows), and
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quickstart:
//
//	u, _ := apichecker.NewUniverse(10000, 1)
//	corpus, _ := apichecker.NewCorpus(u, 2000, 1)
//	checker, report, _ := apichecker.Train(corpus, apichecker.DefaultConfig())
//	verdict, _ := checker.Vet(ctx, apichecker.Submission{Raw: apkBytes})
//
// For always-on operation, wrap the checker in a vetting service with
// bounded-queue backpressure, per-submission deadlines, and metrics:
//
//	svc := apichecker.NewVetService(checker, apichecker.VetServiceConfig{})
//	defer svc.Close()
//	ticket, _ := svc.Submit(ctx, apichecker.Submission{Raw: apkBytes})
//	verdict, _ := ticket.Wait(ctx)
//
// For the §5.3 model-evolution loop, persist trained models to a versioned
// on-disk registry and retrain in the background with gated promotion:
//
//	reg, _ := apichecker.OpenModelRegistry(dir)
//	mgr := apichecker.NewLifecycleManager(checker, reg, apichecker.DefaultGateConfig())
//	mgr.Snapshot("initial")                  // persist the serving model
//	checker, _, _ = apichecker.ColdStart(reg) // later: restart from disk
//	res, _ := mgr.Evolve(ctx, refreshed)      // retrain, shadow-score, hot-swap
//
// See the examples/ directory for runnable scenarios and DESIGN.md for the
// system inventory.
package apichecker

import (
	"fmt"
	"io"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/cluster"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/emulator"
	"apichecker/internal/features"
	"apichecker/internal/framework"
	"apichecker/internal/gateway"
	"apichecker/internal/lifecycle"
	"apichecker/internal/market"
	"apichecker/internal/ml"
	"apichecker/internal/modelstore"
	"apichecker/internal/obs"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
	"apichecker/internal/vetsvc"
)

// Re-exported core types. The aliases form the supported API surface; the
// internal packages behind them are implementation detail.
type (
	// Universe is the Android framework API surface.
	Universe = framework.Universe
	// UniverseConfig controls universe generation.
	UniverseConfig = framework.Config

	// Corpus is a labelled ground-truth app population.
	Corpus = dataset.Corpus
	// CorpusConfig controls corpus generation.
	CorpusConfig = dataset.Config
	// App is one corpus entry.
	App = dataset.App

	// Program is the executable semantics of one app.
	Program = behavior.Program
	// Generator derives programs from specs.
	Generator = behavior.Generator
	// Spec identifies one app to generate.
	Spec = behavior.Spec

	// Checker is the trained vetting pipeline.
	Checker = core.Checker
	// Config is the deployment configuration: its embedded model half
	// travels with every exported model, its NodeConfig stays with the
	// node.
	Config = core.Config
	// NodeConfig is the half of Config each node sets for itself: where
	// its verdicts are kept.
	NodeConfig = core.NodeConfig
	// TrainReport summarizes a training round.
	TrainReport = core.TrainReport
	// Verdict is the outcome of vetting one submission.
	Verdict = core.Verdict
	// Submission is one vetting request for Checker.Vet; exactly one of
	// Raw or Program must be set.
	Submission = core.Submission

	// VetService is the always-on submission-vetting service: a bounded
	// queue feeding a deterministic worker pool.
	VetService = vetsvc.Service
	// VetServiceConfig tunes the service's lanes, queue, and deadlines;
	// the zero value is the production deployment (one lane per emulator
	// slot, a 4x-deep queue).
	VetServiceConfig = vetsvc.Config
	// VetMetrics is a service observability snapshot.
	VetMetrics = vetsvc.Metrics
	// VetTicket tracks one async submission through the service.
	VetTicket = vetsvc.Ticket

	// Gateway is the wire-facing HTTP frontend over a vetting service:
	// submission API, Prometheus /metrics, SSE trace streams, graceful
	// drain. Construct with NewGateway.
	Gateway = gateway.Server
	// GatewayConfig tunes one gateway instance.
	GatewayConfig = gateway.Config
	// SubmissionStatus is the gateway's JSON resource for one submission.
	SubmissionStatus = gateway.SubmissionStatus

	// ClusterCoordinator turns a gateway deployment into the head of a
	// vet cluster: it mounts the claim stream on the gateway mux, one
	// upgraded connection per worker lane, over which remote nodes claim
	// submissions, heartbeat their leases, pull models and report
	// verdicts for first-wins recording. Construct with
	// NewClusterCoordinator and pass through GatewayConfig.Cluster.
	ClusterCoordinator = cluster.Coordinator
	// ClusterCoordinatorConfig tunes fleet liveness, long-polling, and
	// affinity routing.
	ClusterCoordinatorConfig = cluster.CoordinatorConfig
	// ClusterWorker is one remote worker node: claim loops running the
	// full local vet pipeline against a checker cold-started from the
	// coordinator's advertised model generation. Construct with
	// StartClusterWorker.
	ClusterWorker = cluster.Worker
	// ClusterWorkerConfig tunes one worker node.
	ClusterWorkerConfig = cluster.WorkerConfig
	// ClusterWorkerStats is a node activity snapshot.
	ClusterWorkerStats = cluster.WorkerStats
	// RemoteVerdict is one node-reported vet result as the coordinator
	// recorded it (CoordinatorConfig.OnVerdict).
	RemoteVerdict = cluster.RemoteVerdict

	// APK is a parsed package.
	APK = apk.APK

	// VerdictCacheStats snapshots the checker's digest-keyed verdict
	// cache (Checker.CacheStats).
	VerdictCacheStats = vcache.Stats

	// StageStats is one vet-pipeline stage's aggregate span view: count,
	// errors, and virtual-latency quantiles (Checker.StageStats).
	StageStats = obs.StageStats
	// LatencySummary is a deterministic latency digest — mean plus
	// nearest-rank p50/p95/p99 over the virtual clock.
	LatencySummary = obs.Summary
	// ObsCollector is one observability namespace: per-stage span
	// aggregates, named counters and distributions, and a sink fan-out
	// (Checker.Obs, VetService.Obs).
	ObsCollector = obs.Collector
	// ObsEvent is one structured observability record: a pipeline stage
	// span or a service lifecycle event.
	ObsEvent = obs.Event
	// ObsKind classifies observability events (ObsSpan, ObsService).
	ObsKind = obs.Kind
	// ObsSink receives every event emitted through a collector.
	ObsSink = obs.Sink
	// ObsSinkFunc adapts a function to ObsSink.
	ObsSinkFunc = obs.SinkFunc
	// VetOutcome reports how a submission was answered: emulated
	// (VetMiss/VetBypass) or served from the verdict cache
	// (VetHit/VetCoalesced). Returned by Checker.VetOutcome.
	VetOutcome = vcache.Outcome

	// GenerationInfo identifies the model generation currently serving
	// vets (Checker.Generation); Verdict.Generation attributes each
	// verdict to the generation that produced it.
	GenerationInfo = core.GenerationInfo

	// ModelRegistry is the versioned on-disk store of model generations:
	// content-addressed artifacts plus manifests plus a current pointer.
	ModelRegistry = modelstore.Registry
	// ModelArtifact is one deterministic, self-contained model encoding.
	ModelArtifact = core.Artifact
	// ModelManifest is a registry entry's provenance record.
	ModelManifest = modelstore.Manifest
	// ModelQuality is the shadow-evaluation scorecard stored with a
	// promoted generation.
	ModelQuality = modelstore.Quality

	// LifecycleManager drives snapshot, cold-start, gated evolution,
	// hot-swap promotion, and rollback over one checker and registry.
	LifecycleManager = lifecycle.Manager
	// GateConfig sets the promotion quality gates.
	GateConfig = lifecycle.GateConfig
	// ShadowReport compares challenger vs champion on the held-out slice.
	ShadowReport = lifecycle.ShadowReport
	// EvolveResult is one evolution round's outcome.
	EvolveResult = lifecycle.EvolveResult
	// LifecycleState is a manager observability snapshot.
	LifecycleState = lifecycle.State
	// EvolveRunner retrains in the background, off the serving path.
	EvolveRunner = lifecycle.Runner
	// EvolveRunnerConfig shapes the background runner.
	EvolveRunnerConfig = lifecycle.RunnerConfig

	// Market simulates T-Market's review process.
	Market = market.Market
	// MarketConfig tunes the market simulation.
	MarketConfig = market.Config
	// YearConfig drives the 12-month deployment simulation.
	YearConfig = market.YearConfig
	// YearReport is the deployment simulation outcome.
	YearReport = market.YearReport

	// Profile describes an emulation engine.
	Profile = emulator.Profile

	// Selection is a key-API selection outcome.
	Selection = features.Selection
	// FeatureMode selects the feature families (A/P/I combinations).
	FeatureMode = features.Mode

	// Confusion is a binary confusion matrix with P/R/F1 accessors.
	Confusion = ml.Confusion
)

// Label values for ground-truth classes.
const (
	Benign    = behavior.Benign
	Malicious = behavior.Malicious
)

// Family and Category classify apps in the synthetic corpus.
type (
	// Family is a malware family.
	Family = behavior.Family
	// Category is a benign app-store category.
	Category = behavior.Category
)

// Malware families.
const (
	FamilySMSFraud         = behavior.FamilySMSFraud
	FamilySpyware          = behavior.FamilySpyware
	FamilyRansomware       = behavior.FamilyRansomware
	FamilyOverlay          = behavior.FamilyOverlay
	FamilyRootExploit      = behavior.FamilyRootExploit
	FamilyUpdateAttack     = behavior.FamilyUpdateAttack
	FamilyAdFraud          = behavior.FamilyAdFraud
	FamilyReflectionEvader = behavior.FamilyReflectionEvader
	FamilyIntentEvader     = behavior.FamilyIntentEvader
	FamilyLowProfile       = behavior.FamilyLowProfile
)

// Feature combinations (Fig. 10). ModeAPI is the deployed configuration.
const (
	ModeA   = features.ModeA
	ModeP   = features.ModeP
	ModeI   = features.ModeI
	ModeAP  = features.ModeAP
	ModeAI  = features.ModeAI
	ModePI  = features.ModePI
	ModeAPI = features.ModeAPI
)

// Vet outcomes (see Checker.VetOutcome): how a submission was answered.
const (
	// VetBypass: the verdict cache was disabled or the payload carried no
	// digest; the submission paid a full emulation.
	VetBypass = vcache.OutcomeBypass
	// VetMiss: first sighting of these bytes this model generation; the
	// submission paid a full emulation and primed the cache.
	VetMiss = vcache.OutcomeMiss
	// VetHit: answered from the digest-keyed verdict cache.
	VetHit = vcache.OutcomeHit
	// VetCoalesced: deduplicated onto a concurrent identical submission's
	// in-flight emulation (singleflight).
	VetCoalesced = vcache.OutcomeCoalesced
)

// Observability event kinds.
const (
	// ObsSpan: one pipeline stage finished for one submission.
	ObsSpan = obs.KindSpan
	// ObsService: a serving-layer lifecycle event.
	ObsService = obs.KindService
)

// Vet-pipeline stage names, in chain order. StageStats entries and
// FailedVetStage report these.
const (
	StageAdmit       = pipeline.StageAdmit
	StageCacheLookup = pipeline.StageCacheLookup
	StageTriage      = pipeline.StageTriage
	StageDecode      = pipeline.StageDecode
	StageEmulate     = pipeline.StageEmulate
	StageExtract     = pipeline.StageExtract
	StageInfer       = pipeline.StageInfer
)

// FailedVetStage reports which pipeline stage a vet error died in (e.g.
// StageEmulate for a deadline that expired mid-emulation), if the error
// came out of the vet pipeline.
func FailedVetStage(err error) (string, bool) { return pipeline.FailedStage(err) }

// Review outcomes of the market simulation.
const (
	Published               = market.Published
	RejectedFingerprint     = market.RejectedFingerprint
	RejectedML              = market.RejectedML
	PublishedAfterComplaint = market.PublishedAfterComplaint
	QuarantinedAfterReport  = market.QuarantinedAfterReport
)

// Emulation engine profiles (§4.2, §5.1).
var (
	GoogleEmulator      = emulator.GoogleEmulator
	LightweightEmulator = emulator.LightweightEmulator
	RealDevice          = emulator.RealDevice
)

// Typed sentinel errors of the vetting pipeline; match with errors.Is.
var (
	// ErrBadAPK: the submitted archive failed to parse.
	ErrBadAPK = apk.ErrBadAPK
	// ErrBadSubmission: the Submission payload is not exactly one of
	// Raw/Program, or its decoded program names ids the
	// deployment's universe does not have.
	ErrBadSubmission = core.ErrBadSubmission
	// ErrQueueFull: the vetting service's bounded queue rejected the
	// submission (explicit backpressure).
	ErrQueueFull = vetsvc.ErrQueueFull
	// ErrServiceClosed: the vetting service has shut down.
	ErrServiceClosed = vetsvc.ErrClosed
	// ErrServiceDraining: the vetting service is shutting down gracefully;
	// in-flight submissions aborted by a hard drain wrap this (the gateway
	// maps it to 503).
	ErrServiceDraining = vetsvc.ErrDraining
	// ErrSubmissionPoisoned: a submission exhausted its claim attempts
	// (repeated worker panics or expired leases) and was dead-lettered;
	// its ticket fails with an error wrapping this.
	ErrSubmissionPoisoned = vetsvc.ErrPoisoned
	// ErrRawSubmissionOnly: a coordinator-mode service (cluster
	// deployments) rejected a submission with no raw archive bytes —
	// only raw payloads can travel to remote worker nodes.
	ErrRawSubmissionOnly = vetsvc.ErrRawOnly
	// ErrDeadlineExceeded: the per-submission vet deadline expired; wraps
	// context.DeadlineExceeded.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded

	// ErrGateFailed: an evolution round's challenger failed the promotion
	// quality gates; the champion keeps serving.
	ErrGateFailed = lifecycle.ErrGateFailed
	// ErrModelNotFound: the registry has no generation with that digest.
	ErrModelNotFound = modelstore.ErrNotFound
	// ErrNoCurrentModel: the registry has no current generation to
	// cold-start from.
	ErrNoCurrentModel = modelstore.ErrNoCurrent
	// ErrCorruptModel: a stored artifact or manifest failed validation.
	ErrCorruptModel = core.ErrCorruptArtifact
)

// NewUniverse generates a framework universe with numAPIs APIs. Use
// PaperUniverse for the full 50K-API surface.
func NewUniverse(numAPIs int, seed int64) (*Universe, error) {
	cfg := framework.TestConfig(numAPIs)
	cfg.Seed = seed
	return framework.Generate(cfg)
}

// PaperUniverse generates the paper-scale 50K-API universe.
func PaperUniverse(seed int64) (*Universe, error) {
	cfg := framework.DefaultConfig()
	cfg.Seed = seed
	return framework.Generate(cfg)
}

// NewCorpus generates a labelled corpus of numApps apps over the universe
// with the T-Market class mix (§4.1).
func NewCorpus(u *Universe, numApps int, seed int64) (*Corpus, error) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = numApps
	return dataset.Generate(u, cfg)
}

// DefaultConfig is the production deployment configuration from the paper:
// 5K Monkey events, A+P+I features, the lightweight engine, and a random
// forest.
func DefaultConfig() Config { return core.DefaultConfig() }

// Train builds a Checker from a labelled corpus: measure API usage, select
// the key APIs (Set-C ∪ Set-P ∪ Set-S), extract A+P+I features, train the
// forest (§4, §5).
func Train(c *Corpus, cfg Config) (*Checker, *TrainReport, error) {
	return core.TrainFromCorpus(c, cfg)
}

// BuildAPK serializes a behaviour program into an APK archive.
func BuildAPK(p *Program, u *Universe) ([]byte, error) { return apk.Build(p, u) }

// ParseAPK opens an APK archive.
func ParseAPK(data []byte) (*APK, error) { return apk.Parse(data) }

// NewGenerator builds a program generator bound to a universe.
func NewGenerator(u *Universe) *Generator { return behavior.NewGenerator(u) }

// NewMarket wraps a trained checker in a simulated T-Market.
func NewMarket(ck *Checker, cfg MarketConfig) *Market { return market.New(ck, cfg) }

// DefaultMarketConfig matches the paper's review-process description.
func DefaultMarketConfig() MarketConfig { return market.DefaultConfig() }

// RunYear simulates month-by-month deployment with monthly retraining
// (§5.3, Figs. 12/14).
func RunYear(u *Universe, cfg YearConfig) (*YearReport, error) { return market.RunYear(u, cfg) }

// DefaultYearConfig returns a laptop-scale deployment year.
func DefaultYearConfig() YearConfig { return market.DefaultYearConfig() }

// NewVetService wraps a trained checker in the always-on vetting service:
// bounded-queue admission with explicit backpressure, a worker pool running
// vets under per-submission deadlines, and crash/fallback/latency metrics.
// Verdicts are bit-identical to a serial Vet loop over the same admission
// order. Close the service to drain and release its lanes.
func NewVetService(ck *Checker, cfg VetServiceConfig) *VetService {
	return vetsvc.New(ck, cfg)
}

// OpenVetService is NewVetService with the durable intake tier surfaced:
// with cfg.QueueDir set it opens the submission journal there and replays
// every submission a previous life accepted but never settled, so a
// kill-and-restart loses nothing. Journal I/O failures return an error
// instead of panicking.
func OpenVetService(ck *Checker, cfg VetServiceConfig) (*VetService, error) {
	return vetsvc.Open(ck, cfg)
}

// NewGateway fronts a vetting service with the HTTP serving surface:
// POST /v1/submissions (+ poll and blocking ?wait=), GET /metrics
// (Prometheus text exposition of every obs metric), per-submission SSE
// trace streams, and /healthz. Shut down with Gateway.Shutdown to drain
// gracefully.
func NewGateway(svc *VetService, cfg GatewayConfig) *Gateway { return gateway.New(svc, cfg) }

// NewClusterCoordinator builds the head of a vet cluster over a
// coordinator-mode vetting service (VetServiceConfig.DisableLocalLanes).
// Mount it on the gateway by passing it through GatewayConfig.Cluster.
func NewClusterCoordinator(svc *VetService, cfg ClusterCoordinatorConfig) *ClusterCoordinator {
	return cluster.NewCoordinator(svc, cfg)
}

// StartClusterWorker launches one remote worker node against a
// coordinator's base URL. The node cold-starts its checker from the
// coordinator's advertised model generation, claims and vets
// submissions until the coordinator drains or Stop is called, and
// hot-swaps whenever a claim advertises a newer generation.
func StartClusterWorker(cfg ClusterWorkerConfig) (*ClusterWorker, error) {
	return cluster.StartWorker(cfg)
}

// WriteObsMetrics writes the Prometheus text exposition of every counter,
// gauge, distribution, and stage aggregate the collectors hold — the same
// generic exporter behind the gateway's /metrics.
func WriteObsMetrics(w io.Writer, namespace string, cols ...*ObsCollector) error {
	return gateway.WriteMetrics(w, namespace, cols...)
}

// ExportModel writes the checker's serving generation as one APKMODEL
// artifact — the §5.4 distribution path by which large markets share
// trained models with smaller ones, in the same bytes the model registry
// stores: universe identity, model config (triage band included), key-API
// selection, forest and (when trained) the tier-1 triage model. The node
// config stays behind.
func ExportModel(ck *Checker, w io.Writer) error {
	_, data := ck.ArtifactBytes()
	_, err := w.Write(data)
	return err
}

// ImportModel cold-starts a checker from an artifact written by
// ExportModel, under the default node config. The framework universe is
// rebuilt from the artifact itself, so the importer needs nothing but the
// bytes, and its verdicts are bit-identical to the exporter's.
func ImportModel(r io.Reader) (*Checker, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("apichecker: import model: %w", err)
	}
	a, err := core.Decode(data)
	if err != nil {
		return nil, err
	}
	return a.Instantiate(NodeConfig{})
}

// OpenModelRegistry opens (or creates) a versioned model registry rooted
// at dir.
func OpenModelRegistry(dir string) (*ModelRegistry, error) { return modelstore.Open(dir) }

// NewLifecycleManager binds a serving checker to a registry under the
// given promotion gates.
func NewLifecycleManager(ck *Checker, reg *ModelRegistry, gates GateConfig) *LifecycleManager {
	return lifecycle.NewManager(ck, reg, gates)
}

// DefaultGateConfig is the conservative promotion policy: a challenger may
// not drop F1 or AUC by more than 5 points against the champion on the
// held-out slice.
func DefaultGateConfig() GateConfig { return lifecycle.DefaultGateConfig() }

// ColdStart builds a serving checker from the registry's current
// generation — the restart path: no retraining, bit-identical verdicts to
// the process that snapshotted the model.
func ColdStart(reg *ModelRegistry) (*Checker, ModelManifest, error) {
	return lifecycle.ColdStart(reg)
}

// StartEvolveRunner launches the background evolution runner: rounds train
// off the serving path and promote via atomic hot-swap.
func StartEvolveRunner(m *LifecycleManager, cfg EvolveRunnerConfig) *EvolveRunner {
	return lifecycle.StartRunner(m, cfg)
}
