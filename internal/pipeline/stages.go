package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// Stage names, in execution order. The -trace stage table, the spans and
// the stage-attributed errors use these.
const (
	StageAdmit       = "admit"
	StageCacheLookup = "cache.lookup"
	StageTriage      = "triage"
	StageDecode      = "decode"
	StageEmulate     = "emulate"
	StageExtract     = "extract"
	StageInfer       = "infer"
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

// triageEngine is the Engine of a verdict the triage tier answered.
const triageEngine = "triage.static"

// ModelGen is one immutable model generation: the universe, the key-API
// selection, the extractor built over it, the emulation engine hooked for
// those keys, and the forest. Nothing in it is mutated once the generation
// is published, and nothing holds per-vet state, so any number of vets run
// on it at once. A vet pins exactly one ModelGen (inside the cache-lookup
// singleflight) and drives every remaining stage through it, so a
// concurrent hot-swap can never mix feature extraction from one
// generation with scoring from another — in-flight vets finish on the
// generation they started with.
type ModelGen struct {
	// ID is the swap counter (1 for the initial generation). Artifact is
	// the APKMODEL encoding of exactly the parts and model config this
	// generation serves, and Digest its hex sha256: the generation's one
	// identity, set when it is built.
	ID       uint64
	Digest   string
	Artifact []byte

	Universe  *framework.Universe
	Selection *features.Selection
	Extractor *features.Extractor

	// Run emulates one program on this generation's engine, hooked for its
	// selected keys, under the vet's context and into the vet's scratch.
	// Every payload kind runs through it; the engine is stateless, so
	// concurrent vets need no lock.
	Run func(context.Context, *behavior.Program, monkey.Config, *emulator.Scratch) (*emulator.Result, error)

	// Model is the generation's forest; infer scores on it.
	Model *ml.RandomForest

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

	// SwappedAt is when this generation started serving.
	SwappedAt time.Time
}

// Deps wires the vet drivers (Vet, Answer) to the checker that assembled
// them. Gen is a func so a hot-swap is picked up by the next submission;
// everything else is generation-independent.
type Deps struct {
	// Gen returns the current model generation. A vet pins it exactly once
	// (triage) on the VetContext; admission reads it only for its
	// universe's sizes.
	Gen func() *ModelGen

	// Cache is the digest-keyed verdict cache; nil disables memoization.
	// Values are flat EncodeEntry buffers — one GC-opaque allocation per
	// memoized verdict.
	Cache *vcache.Cache[[]byte]

	// NextSeq reserves the next vet sequence number.
	NextSeq func() int64

	// Obs receives one span per stage, and the triage and emulator
	// reliability counters (emu.runs, emu.crashes, emu.fallbacks). The
	// drivers need it set.
	Obs *obs.Collector

	// Events and Seed shape the per-submission Monkey configuration.
	Events int
	Seed   int64

	// m holds the counter handles on Obs, resolved by the first vet.
	m atomic.Pointer[meters]
}

// meters are the vet path's counter handles on Obs, resolved once, so that
// counting takes neither the collector's lock nor a name built per vet.
type meters struct {
	triagePass, triageBand, triageHit     *obs.Counter
	runs, crashes, crashedSubs, fallbacks *obs.Counter

	// engines maps an engine's name to its completed-run *obs.Counter,
	// resolved on obs when a run first completes on that engine.
	obs     *obs.Collector
	engines sync.Map
}

// meters returns the handles, resolving them on the first call. Racing
// first calls resolve the same handles (Collector.Counter is idempotent),
// so whichever set is kept counts the same.
func (d *Deps) meters() *meters {
	if m := d.m.Load(); m != nil {
		return m
	}
	c := d.Obs
	m := &meters{
		triagePass:  c.Counter("triage.pass"),
		triageBand:  c.Counter("triage.band"),
		triageHit:   c.Counter("triage.hit"),
		runs:        c.Counter("emu.runs"),
		crashes:     c.Counter("emu.crashes"),
		crashedSubs: c.Counter("emu.crashed_submissions"),
		fallbacks:   c.Counter("emu.fallbacks"),
		obs:         c,
	}
	d.m.Store(m)
	return m
}

// engine returns the completed-run counter of the named engine.
func (m *meters) engine(name string) *obs.Counter {
	c, ok := m.engines.Load(name)
	if !ok {
		c, _ = m.engines.LoadOrStore(name, m.obs.Counter("emu.engine."+name))
	}
	return c.(*obs.Counter)
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

// admit validates the exactly-one-payload invariant, bounds the ids of a
// program that arrived already decoded, and resolves the content digest.
// It consumes no vet sequence number, so an invalid submission leaves no
// trace in the accounting.
func (d *Deps) admit(vc *VetContext) error {
	if err := vc.Sub.Validate(); err != nil {
		return err
	}
	// The generation is read here only for its universe's sizes; the vet
	// pins the one it runs on later, inside the cache bracket. A
	// deployment's universe only ever grows (framework.Evolve appends), so
	// ids in range now are in range for that one too.
	if p := vc.Sub.Program; p != nil {
		if err := checkIDs(p, d.Gen().Universe); err != nil {
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

// lookup brackets triage and the expensive stages with the digest-keyed
// verdict cache: a hit answers without running them, a concurrent
// identical submission coalesces onto the in-flight leader
// (singleflight), a miss runs them and stores the result. With the cache
// disabled or the payload undigestable they run uncached (OutcomeBypass).
func (d *Deps) lookup(vc *VetContext) error {
	if d.Cache == nil || vc.Digest == "" {
		vc.Outcome = vcache.OutcomeBypass
		err := d.emit(vc, StageTriage, d.triage(vc))
		vc.Span(0, vc.Outcome.String())
		return err
	}
	e, out, err := d.Cache.Do(vc.Ctx, vc.Digest, func() ([]byte, error) {
		if err := d.emit(vc, StageTriage, d.triage(vc)); err != nil {
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
		// Vector from the inner stages; decoding its own entry back would
		// only add allocations.
		return nil
	}
	return vc.answer(e)
}

// answer decodes a cache entry into caller-owned storage: the hit half of
// lookup, shared with Answer. The Verdict is a fresh allocation per
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

// triage is the tier-1 static pre-screen: a manifest-only permissions +
// intent-filter vector scored by a lightweight linear model, with no dex
// decode, no behaviour materialization, and no emulation. A probability
// outside the generation's uncertainty band answers immediately with a
// tier-1 verdict (Engine "triage.static", microsecond virtual cost); a
// probability in the band — or a disabled tier — falls through to the
// tier-2 stages unchanged, so tier-2 verdicts stay bit-identical to a
// checker without the stage.
//
// The stage sits inside the cache-lookup bracket, so tier-1 verdicts are
// memoized, coalesced, persisted, and epoch-invalidated exactly like
// tier-2 ones. It also pins the generation: the pin happens exactly once
// per leader, inside the singleflight, before any generation state is
// consulted.
func (d *Deps) triage(vc *VetContext) error {
	gen := d.Gen()
	vc.Gen = gen
	if gen.Triage == nil || (gen.TriageLo <= 0 && gen.TriageHi >= 1) {
		err := d.analyse(vc)
		vc.Span(0, "off")
		d.meters().triagePass.Inc()
		return err
	}
	man, err := manifestOnly(vc)
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
		// back for extract to refill with the A+P+I vector.
		err := d.analyse(vc)
		vc.Span(triageCost, "band")
		d.meters().triageBand.Inc()
		return err
	}
	// Confident: short-circuit with a tier-1 verdict. The submission was
	// genuinely vetted (unlike a cache hit), so it consumes a sequence
	// number exactly as the decode leader would have.
	if vc.Seq == 0 {
		vc.Seq = d.NextSeq()
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
		Engine:      triageEngine,
	}
	vc.Span(triageCost, "hit")
	d.meters().triageHit.Inc()
	return nil
}

// manifestOnly resolves the manifest view without paying the full decode:
// raw archives open their handle and inflate the manifest entry alone, and
// behaviour programs derive it. The handle and the manifest stay on the
// context, so a fall-through decode neither walks the directory nor decodes
// the manifest twice.
func manifestOnly(vc *VetContext) (*manifest.Manifest, error) {
	sub := vc.Sub
	switch {
	case sub.Raw != nil:
		a, err := vc.archive()
		if err != nil {
			return nil, err
		}
		m, err := a.Manifest()
		if err != nil {
			return nil, err
		}
		vc.Manifest = m
		return m, nil
	default:
		m, err := sub.Program.Manifest(vc.Gen.Universe)
		if err != nil {
			return nil, err
		}
		vc.Manifest = m
		return m, nil
	}
}

// decode is the static half of the vet: it reserves the vet sequence
// number, derives the content-seeded Monkey configuration, parses a raw
// archive, and resolves the manifest view the feature extractor will
// join the hook log against. Runs only when the cache did not answer.
func (d *Deps) decode(vc *VetContext) error {
	// vc.Gen is the generation triage pinned inside the cache-lookup
	// singleflight, so a leader that starts after a hot-swap computes
	// wholly on the new generation, and one that started before finishes
	// wholly on the old one.
	if vc.Seq == 0 {
		vc.Seq = d.NextSeq()
	}
	vc.Monkey = d.MonkeyFor(vc.Digest, vc.Seq)

	sub := vc.Sub
	switch {
	case sub.Raw != nil:
		// The vet-path view of the archive: the manifest triage may already
		// have decoded, and the behaviour blob the emulator runs. The dex
		// was located and bounded by the directory walk and is never
		// inflated — nothing downstream reads it.
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
		vc.Span(decodeBase+time.Duration(len(sub.Raw)/1024)*decodePerKiB, "raw")
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

// emulate exercises the decoded program on the pinned generation's engine
// and collects the hook log, whatever payload kind it came from. The span
// duration is the run's calibrated virtual analysis time.
func (d *Deps) emulate(vc *VetContext) error {
	res, err := vc.Gen.Run(vc.Ctx, vc.Program, vc.Monkey, &vc.scratch.emu)
	if err != nil {
		return err
	}
	vc.Run = res
	d.book(res)
	vc.Span(res.VirtualTime, res.Profile)
	return nil
}

// book absorbs the emulator reliability accounting (§5.1) into obs:
// crash-restarts, fallback re-runs, and completed emulations by engine.
func (d *Deps) book(res *emulator.Result) {
	m := d.meters()
	m.runs.Inc()
	m.engine(res.Profile).Inc()
	if res.Crashed > 0 {
		m.crashes.Add(uint64(res.Crashed))
		m.crashedSubs.Inc()
	}
	if res.FellBack {
		m.fallbacks.Inc()
	}
}

// extract joins the hook log against the manifest into one A+P+I feature
// vector.
func extract(vc *VetContext) error {
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

// infer classifies the feature vector on the pinned generation's forest
// and assembles the Verdict. It honours the submission context: a deadline
// that survived emulation but expired before classification surfaces
// here, attributed to this stage.
func infer(vc *VetContext) error {
	if err := vc.Ctx.Err(); err != nil {
		return err
	}
	score := vc.Gen.Model.Score(vc.Vector)
	p, res := vc.Program, vc.Run
	pkg, version := p.PackageName, p.Version
	if vc.Sub.Raw != nil {
		// Raw archives are identified by their decoded manifest, exactly as
		// the device sequence reported them before the pipeline split
		// decode from emulation.
		pkg, version = vc.Manifest.Package, vc.Manifest.VersionCode
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
