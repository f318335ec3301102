package pipeline

import (
	"fmt"
	"time"

	"apichecker/internal/adb"
	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/emulator"
	"apichecker/internal/features"
	"apichecker/internal/framework"
	"apichecker/internal/manifest"
	"apichecker/internal/ml"
	"apichecker/internal/monkey"
	"apichecker/internal/obs"
	"apichecker/internal/vcache"
)

// Stage names, in chain order. The -trace stage table and the
// stage-attributed errors use these.
const (
	StageAdmit       = "admit"
	StageCacheLookup = "cache.lookup"
	StageTriage      = "triage"
	StageDecode      = "decode"
	StageEmulate     = "emulate"
	StageExtract     = "extract"
	StageInfer       = "infer"
	StageCacheStore  = "cache.store"
)

// Deterministic virtual-clock costs for the bookkeeping stages. The
// emulate stage reports the run's calibrated VirtualTime; these cover the
// cheap CPU-bound stages so the -trace table shows where the non-analysis
// overhead sits. They feed spans only — Verdict times are computed exactly
// as before (ScanTime = emulation VirtualTime, OverallTime adds
// FixedOverhead).
const (
	// decodeBase/decodePerKiB model unpacking + static parse of a raw
	// archive.
	decodeBase   = 250 * time.Millisecond
	decodePerKiB = time.Millisecond
	// manifestCost models deriving the manifest view of a behaviour
	// program that arrived without one.
	manifestCost = 50 * time.Millisecond
	// extractPerFeature models building one A+P+I vector column.
	extractPerFeature = 2 * time.Microsecond
	// inferPerTree models one tree walk of the forest.
	inferPerTree = 20 * time.Microsecond
	// triageCost models the whole tier-1 pre-screen: manifest-only zip
	// decode, P+I vector fill, and one linear dot product — microseconds
	// against the emulate tail's tens of virtual seconds, which is the
	// entire point of the tier.
	triageCost = 75 * time.Microsecond
)

// ModelGen is one immutable model generation as the stages see it: the
// universe, the extractor built over the selected keys, the emulation
// lanes hooked for those keys, and the forest's scorer. A vet pins
// exactly one ModelGen (in the Decode stage, inside the cache-lookup
// singleflight) and drives every remaining stage through it, so a
// concurrent hot-swap can never mix feature extraction from one
// generation with scoring from another — in-flight vets finish on the
// generation they started with.
type ModelGen struct {
	// ID is the swap counter (1 for the initial generation); Digest is
	// the content digest of the generation's persisted artifact, empty
	// when the generation was never snapshotted.
	ID     uint64
	Digest string

	Universe  *framework.Universe
	Extractor *features.Extractor

	// Farm gates program/parsed emulations behind this generation's
	// emulator lanes; a cancelled VetContext returns its lane to the farm.
	Farm *emulator.Farm

	// RunRaw drives a raw archive through the adb device sequence
	// (install → Monkey → logs → uninstall → clear). The closure owns the
	// device serialization.
	RunRaw func(vc *VetContext) (*adb.VetResult, error)

	// Score classifies one feature vector on the generation's forest.
	Score func(ml.Vector) float64

	// Trees sizes the infer span's virtual cost.
	Trees int

	// Triage is the tier-1 manifest-only linear scorer (SigPID-style
	// ranked-permission model); nil disables the tier. TriageExtractor is
	// the P+I-mode extractor its vectors are built with — trained and
	// served on exactly the same manifest-only view.
	Triage          *ml.Linear
	TriageExtractor *features.Extractor

	// TriageLo and TriageHi bound the uncertainty band in probability
	// space: a submission whose triage probability falls strictly outside
	// [TriageLo, TriageHi] short-circuits with a tier-1 verdict; anything
	// in the band pays the full emulate→extract→infer path. The trivial
	// band [0, 1] disables the tier (nothing is ever outside it).
	TriageLo, TriageHi float64

	// Epoch is the verdict-cache epoch this generation serves under;
	// write-through stores are conditional on it so a verdict computed on
	// an old generation can never be stored into a newer epoch.
	Epoch uint64
}

// Deps wires the stages to the checker that assembled them. Gen is a func
// so a hot-swap is picked up by the next submission without rebuilding
// the chain; everything else is generation-independent.
type Deps struct {
	// Gen returns the current model generation. The Decode stage calls it
	// exactly once per submission and pins the result on the VetContext.
	Gen func() *ModelGen

	// Cache is the digest-keyed verdict cache; nil disables memoization.
	// Values are flat EncodeEntry buffers — one GC-opaque allocation per
	// memoized verdict — not CachedVerdict graphs.
	Cache func() *vcache.Cache[[]byte]

	// NextSeq reserves the next vet sequence number.
	NextSeq func() int64

	// Obs books emulator reliability counters (emu.runs, emu.crashes,
	// emu.fallbacks) per emulated completion.
	Obs *obs.Collector

	// Events and Seed shape the per-submission Monkey configuration.
	Events int
	Seed   int64
}

// MonkeyFor derives the Monkey configuration for one submission. The seed
// mixes the deployment seed with the content digest, so a given archive
// is exercised identically however often — and in whatever order — it is
// submitted. That content-determinism is what makes a cached verdict
// bit-identical to the emulation it memoizes, and parallel service lanes
// bit-identical to a serial vet loop. A submission with no digest (an
// undigestable payload) falls back to the sequence-derived seed.
func (d *Deps) MonkeyFor(dig string, seq int64) monkey.Config {
	seed := d.Seed ^ seq<<7
	if dig != "" {
		seed = d.Seed ^ int64(DigestSeed(dig))
	}
	mk := monkey.ProductionConfig(seed)
	mk.Events = d.Events
	return mk
}

// Admit validates the exactly-one-payload invariant, bounds the ids of a
// program that arrived already decoded, and resolves the content digest.
// It consumes no vet sequence number, so an invalid submission leaves no
// trace in the accounting.
type Admit struct{ D *Deps }

func (Admit) Name() string { return StageAdmit }

func (s Admit) Run(vc *VetContext) error {
	if err := vc.Sub.Validate(); err != nil {
		return err
	}
	// The generation is read here only for its universe's sizes; the vet
	// pins the one it runs on later, inside the cache bracket. A
	// deployment's universe only ever grows (framework.Evolve appends), so
	// ids in range now are in range for that one too.
	p := vc.Sub.Program
	if vc.Sub.Parsed != nil {
		p = vc.Sub.Parsed.Program
	}
	if p != nil {
		if err := checkIDs(p, s.D.Gen().Universe); err != nil {
			return fmt.Errorf("core: %w: %w", ErrBadSubmission, err)
		}
	}
	vc.Digest = vc.Sub.ContentDigest()
	vc.Seq = vc.Sub.Seq
	return nil
}

// checkIDs bounds every API, intent and permission id the program names
// against the universe the vet is about to index with them. A behaviour
// blob is well-formed with any non-negative id (behavior.Validate cannot
// know the deployment); which ids exist is the universe's to say, and an
// id past its tables is a bad submission, not an index-out-of-range panic
// in the emulator.
func checkIDs(p *behavior.Program, u *framework.Universe) error {
	nAPIs, nIntents, nPerms := uint(u.NumAPIs()), uint(len(u.Intents())), uint(len(u.Permissions()))
	groups := [2][]behavior.ActivityBehavior{p.Activities}
	if p.Payload != nil {
		groups[1] = p.Payload.Activities
	}
	for _, acts := range groups {
		for i := range acts {
			a := &acts[i]
			for _, rates := range [2][]behavior.APIRate{a.Direct, a.Reflection} {
				for _, r := range rates {
					if uint(r.API) >= nAPIs {
						return fmt.Errorf("%s: activity %s names API %d, universe has %d", p.PackageName, a.Name, r.API, nAPIs)
					}
				}
			}
			for _, id := range a.SendIntents {
				if uint(id) >= nIntents {
					return fmt.Errorf("%s: activity %s sends intent %d, universe has %d", p.PackageName, a.Name, id, nIntents)
				}
			}
		}
	}
	for _, id := range p.ReceiverIntents {
		if uint(id) >= nIntents {
			return fmt.Errorf("%s: receives intent %d, universe has %d", p.PackageName, id, nIntents)
		}
	}
	for _, id := range p.Permissions {
		if uint(id) >= nPerms {
			return fmt.Errorf("%s: requests permission %d, universe has %d", p.PackageName, id, nPerms)
		}
	}
	return nil
}

// CacheLookup brackets the expensive stages with the digest-keyed verdict
// cache: a hit answers without running them, a concurrent identical
// submission coalesces onto the in-flight leader (singleflight), a miss
// runs the rest of the chain and stores its result. With the cache
// disabled or the payload undigestable the chain runs uncached
// (OutcomeBypass).
type CacheLookup struct{ D *Deps }

func (CacheLookup) Name() string { return StageCacheLookup }

func (s CacheLookup) Wrap(vc *VetContext, next func() error) error {
	cache := s.D.Cache()
	if cache == nil || vc.Digest == "" {
		vc.Outcome = vcache.OutcomeBypass
		if err := next(); err != nil {
			vc.Span(0, vc.Outcome.String())
			return err
		}
		vc.Span(0, vc.Outcome.String())
		return nil
	}
	e, out, err := cache.Do(vc.Ctx, vc.Digest, func() ([]byte, error) {
		if err := next(); err != nil {
			return nil, err
		}
		// The stored entry is a flat copy of the leader's result, so the
		// cache never aliases the (pooled) VetContext.
		return EncodeEntry(vc.Verdict, vc.Vector), nil
	})
	vc.Outcome = out
	vc.Span(0, out.String())
	if err != nil {
		return err
	}
	if out == vcache.OutcomeMiss {
		// The leader already holds its own freshly allocated Verdict and
		// Vector from the inner chain; decoding its own entry back would
		// only add allocations.
		return nil
	}
	return vc.answer(e)
}

// answer decodes a cache entry into caller-owned storage: the hit half of
// CacheLookup, shared with CacheHit. The Verdict is a fresh allocation per
// caller (no two submissions ever share a result pointer); the vector
// reuses this context's scratch.
func (vc *VetContext) answer(e []byte) error {
	v := new(Verdict)
	vec, err := DecodeEntry(e, v, vc.Vector[:0])
	if err != nil {
		return err
	}
	v.Digest = vc.Digest // the key looked up; the entry does not repeat it
	vc.Verdict = v
	vc.Vector = vec
	return nil
}

// CacheHit answers from the entry an admission probe already found
// (vc.Entry): CacheLookup's hit half under CacheLookup's name, so the span
// it records is the one a lookup hit records. It never runs the stages
// behind it.
type CacheHit struct{}

func (CacheHit) Name() string { return StageCacheLookup }

func (CacheHit) Run(vc *VetContext) error {
	vc.Outcome = vcache.OutcomeHit
	vc.Span(0, vc.Outcome.String())
	return vc.answer(vc.Entry)
}

// Triage is the tier-1 static pre-screen: a manifest-only permissions +
// intent-filter vector scored by a lightweight linear model, with no dex
// decode, no behaviour materialization, and no emulation. A probability
// outside the generation's uncertainty band answers immediately with a
// tier-1 verdict (Engine "triage.static", microsecond virtual cost); a
// probability in the band — or a disabled tier — falls through to the
// full chain unchanged, so tier-2 verdicts stay bit-identical to a
// checker without the stage.
//
// The stage sits inside the cache-lookup bracket, so tier-1 verdicts are
// memoized, coalesced, persisted, and epoch-invalidated exactly like
// tier-2 ones. It also takes over the generation pin from Decode: the pin
// still happens exactly once per leader, inside the singleflight, before
// any generation state is consulted.
type Triage struct{ D *Deps }

func (Triage) Name() string { return StageTriage }

func (s Triage) Wrap(vc *VetContext, next func() error) error {
	gen := s.D.Gen()
	vc.Gen = gen
	if gen.Triage == nil || (gen.TriageLo <= 0 && gen.TriageHi >= 1) {
		err := next()
		vc.Span(0, "off")
		s.count("triage.pass")
		return err
	}
	man, err := s.manifestOnly(vc)
	if err != nil {
		return err
	}
	x, err := gen.TriageExtractor.ManifestVectorInto(man, vc.Vector)
	if err != nil {
		return err
	}
	vc.Vector = x
	p := gen.Triage.Prob(x)
	if p >= gen.TriageLo && p <= gen.TriageHi {
		// Uncertain: pay the full pipeline. The vector scratch is handed
		// back for ExtractFeatures to refill with the A+P+I vector.
		err := next()
		vc.Span(triageCost, "band")
		s.count("triage.band")
		return err
	}
	// Confident: short-circuit with a tier-1 verdict. The submission was
	// genuinely vetted (unlike a cache hit), so it consumes a sequence
	// number exactly as the decode leader would have.
	if vc.Seq == 0 {
		vc.Seq = s.D.NextSeq()
	}
	pkg, version := man.Package, man.VersionCode
	if prog := vc.Sub.Program; prog != nil {
		pkg, version = prog.PackageName, prog.Version
	}
	vc.Verdict = &Verdict{
		Package:     pkg,
		VersionCode: version,
		Digest:      vc.Digest,
		Generation:  gen.ID,
		Malicious:   p > gen.TriageHi,
		Score:       gen.Triage.Score(x),
		Tier:        1,
		ScanTime:    triageCost,
		OverallTime: triageCost + FixedOverhead,
		Engine:      "triage.static",
	}
	vc.Span(triageCost, "hit")
	s.count("triage.hit")
	return nil
}

// manifestOnly resolves the manifest view without paying the full decode:
// raw archives open their handle and inflate the manifest entry alone,
// parsed APKs already carry theirs, and behaviour programs derive it. The
// handle and a derived manifest stay on the context, so a fall-through
// Decode neither walks the directory nor decodes the manifest twice.
func (s Triage) manifestOnly(vc *VetContext) (*manifest.Manifest, error) {
	sub := vc.Sub
	switch {
	case sub.Raw != nil:
		a, err := vc.archive()
		if err != nil {
			return nil, err
		}
		return a.Manifest()
	case sub.Parsed != nil:
		return sub.Parsed.Manifest, nil
	default:
		m, err := sub.Program.Manifest(vc.Gen.Universe)
		if err != nil {
			return nil, err
		}
		vc.Manifest = m
		return m, nil
	}
}

func (s Triage) count(name string) {
	if s.D.Obs != nil {
		s.D.Obs.Counter(name).Inc()
	}
}

// Decode is the static half of the vet: it reserves the vet sequence
// number, derives the content-seeded Monkey configuration, parses a raw
// archive, and resolves the manifest view the feature extractor will
// join the hook log against. Runs only when the cache did not answer.
type Decode struct{ D *Deps }

func (Decode) Name() string { return StageDecode }

func (s Decode) Run(vc *VetContext) error {
	// Pin the model generation for the whole remaining chain. The pin
	// happens inside the cache-lookup singleflight — by the Triage stage
	// when it is in the chain, here otherwise — so a leader that starts
	// after a hot-swap computes wholly on the new generation, and one that
	// started before finishes wholly on the old one.
	if vc.Gen == nil {
		vc.Gen = s.D.Gen()
	}
	if vc.Seq == 0 {
		vc.Seq = s.D.NextSeq()
	}
	vc.Monkey = s.D.MonkeyFor(vc.Digest, vc.Seq)

	sub := vc.Sub
	switch {
	case sub.Raw != nil:
		// The vet-path view of the archive: the manifest triage may already
		// have decoded, and the behaviour blob the emulator runs. The dex
		// was located and bounded by the directory walk and is never
		// inflated — nothing downstream reads it — so Parsed.Dex stays nil.
		a, err := vc.archive()
		if err != nil {
			return err
		}
		prog, err := a.Program()
		if err != nil {
			return err
		}
		man, err := a.Manifest() // memoized: triage or Program decoded it
		if err != nil {
			return err
		}
		if err := checkIDs(prog, vc.Gen.Universe); err != nil {
			return fmt.Errorf("%w: %w", apk.ErrBadAPK, err)
		}
		vc.Program = prog
		vc.Manifest = man
		vc.Parsed = &apk.APK{Manifest: man, Program: prog, SHA256: vc.Digest, Size: int64(len(sub.Raw))}
		vc.Span(decodeBase+time.Duration(len(sub.Raw)/1024)*decodePerKiB, "raw")
	case sub.Parsed != nil:
		vc.Parsed = sub.Parsed
		vc.Program = sub.Parsed.Program
		vc.Manifest = sub.Parsed.Manifest
		vc.Span(0, "parsed")
	default:
		vc.Program = sub.Program
		if vc.Manifest == nil { // triage may have derived it already
			m, err := sub.Program.Manifest(vc.Gen.Universe)
			if err != nil {
				return err
			}
			vc.Manifest = m
		}
		vc.Span(manifestCost, "program")
	}
	return nil
}

// Emulate exercises the app and collects the hook log: raw archives run
// the full adb device sequence on the checker's device; parsed/program
// submissions run on a farm lane (and return it, even when the context
// is cancelled mid-run). The span duration is the run's calibrated
// virtual analysis time.
type Emulate struct{ D *Deps }

func (Emulate) Name() string { return StageEmulate }

func (s Emulate) Run(vc *VetContext) error {
	if vc.Sub.Raw != nil {
		vr, err := vc.Gen.RunRaw(vc)
		if err != nil {
			return err
		}
		vc.Run = vr.Run
	} else {
		res, err := vc.Gen.Farm.RunContext(vc.Ctx, vc.Program, vc.Monkey)
		if err != nil {
			return err
		}
		vc.Run = res
	}
	s.book(vc.Run)
	vc.Span(vc.Run.VirtualTime, vc.Run.Profile)
	return nil
}

// book absorbs the emulator reliability accounting (§5.1) into obs:
// crash-restarts, fallback re-runs, and completed emulations by engine.
func (s Emulate) book(res *emulator.Result) {
	if s.D.Obs == nil {
		return
	}
	s.D.Obs.Counter("emu.runs").Inc()
	s.D.Obs.Counter("emu.engine." + res.Profile).Inc()
	if res.Crashed > 0 {
		s.D.Obs.Counter("emu.crashes").Add(uint64(res.Crashed))
		s.D.Obs.Counter("emu.crashed_submissions").Inc()
	}
	if res.FellBack {
		s.D.Obs.Counter("emu.fallbacks").Inc()
	}
}

// ExtractFeatures joins the hook log against the manifest into one A+P+I
// feature vector.
type ExtractFeatures struct{ D *Deps }

func (ExtractFeatures) Name() string { return StageExtract }

func (s ExtractFeatures) Run(vc *VetContext) error {
	// The vector fills this context's recycled scratch; everything that
	// outlives the vet (cache entries, score results) copies out of it.
	x, err := vc.Gen.Extractor.VectorInto(vc.Run.Log, vc.Manifest, vc.Vector)
	if err != nil {
		return err
	}
	vc.Vector = x
	vc.Span(time.Duration(len(x))*extractPerFeature, "")
	return nil
}

// Infer classifies the feature vector on the pinned generation's forest
// and assembles the Verdict. It honours the submission
// context: a deadline that survived emulation but expired before
// classification surfaces here, attributed to this stage.
type Infer struct{ D *Deps }

func (Infer) Name() string { return StageInfer }

func (s Infer) Run(vc *VetContext) error {
	if err := vc.Ctx.Err(); err != nil {
		return err
	}
	score := vc.Gen.Score(vc.Vector)
	p, res := vc.Program, vc.Run
	pkg, version := p.PackageName, p.Version
	if vc.Sub.Raw != nil && vc.Parsed != nil {
		// Raw archives are identified by their parsed manifest, exactly as
		// the device sequence reported them before the pipeline split
		// decode from emulation.
		pkg, version = vc.Parsed.PackageName(), vc.Parsed.VersionCode()
	}
	vc.Verdict = &Verdict{
		Package:        pkg,
		VersionCode:    version,
		Digest:         vc.Digest,
		Generation:     vc.Gen.ID,
		Malicious:      score > 0,
		Score:          score,
		Tier:           2,
		ScanTime:       res.VirtualTime,
		OverallTime:    res.VirtualTime + FixedOverhead,
		FellBack:       res.FellBack,
		Crashes:        res.Crashed,
		Engine:         res.Profile,
		InvokedKeyAPIs: res.Log.DistinctInvoked(),
	}
	vc.Span(time.Duration(vc.Gen.Trees)*inferPerTree, "")
	return nil
}

// CacheStore writes a verdict computed outside the cache-lookup bracket
// through to the cache (the VetRun path, which always emulates because
// the raw run result is the point). The store is conditional on the
// pinned generation's cache epoch: a verdict computed on a generation
// that was swapped out mid-run is returned to the caller but never
// stored, so the cache can only ever serve current-generation verdicts.
type CacheStore struct{ D *Deps }

func (CacheStore) Name() string { return StageCacheStore }

func (s CacheStore) Run(vc *VetContext) error {
	cache := s.D.Cache()
	if cache == nil || vc.Digest == "" {
		vc.Span(0, "skipped")
		return nil
	}
	if !cache.TryPut(vc.Digest, EncodeEntry(vc.Verdict, vc.Vector), vc.Gen.Epoch) {
		vc.Span(0, "stale")
		return nil
	}
	vc.Span(0, "stored")
	return nil
}

// VetChain assembles the canonical serving chain: Admit → CacheLookup →
// Triage → Decode → Emulate → ExtractFeatures → Infer, with the triage
// pre-screen and the three expensive stages bracketed by the cache
// singleflight.
func VetChain(col *obs.Collector, d *Deps) *Pipeline {
	return New(col, Admit{d}, CacheLookup{d}, Triage{d}, Decode{d}, Emulate{d}, ExtractFeatures{d}, Infer{d})
}

// HitChain assembles the chain that answers a submission from a cache
// entry found before it was sequenced: Admit → CacheHit, the same two
// spans a lookup hit on VetChain records.
func HitChain(col *obs.Collector, d *Deps) *Pipeline {
	return New(col, Admit{d}, CacheHit{})
}

// RunChain assembles the always-emulate chain VetRun drives: no cache
// lookup (the emulation result is the point), but the verdict still
// writes through so subsequent Vets of the same content are served
// without re-running.
func RunChain(col *obs.Collector, d *Deps) *Pipeline {
	return New(col, Admit{d}, Decode{d}, Emulate{d}, ExtractFeatures{d}, Infer{d}, CacheStore{d})
}
