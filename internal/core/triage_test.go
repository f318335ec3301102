package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/dataset"
	"apichecker/internal/emulator"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
)

// testBandLo/Hi is the non-trivial uncertainty band the triage tests run
// under: wide enough that low-confidence apps still pay the full pipeline,
// narrow enough that the trained linear model short-circuits a solid
// majority of the corpus.
const (
	testBandLo = 0.05
	testBandHi = 0.95
)

// tieredAndFlat trains two checkers over identical corpora (same universe,
// same seed) differing only in the configured triage band. Training is
// band-independent, so the trained parts — forest and triage model both —
// are bit-identical; only the serving band differs.
func tieredAndFlat(t *testing.T, n int) (tiered, flat *Checker, corpus *dataset.Corpus) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TriageLo, cfg.TriageHi = testBandLo, testBandHi
	tiered, corpus = trainedCheckerCfg(t, n, cfg)
	flat, _ = trainedCheckerCfg(t, n, DefaultConfig())
	return tiered, flat, corpus
}

// TestTriageTrivialBandBitIdentical: the explicit full band [0, 1] (and
// the zero band) disables the tier, and every verdict — fresh, cached,
// every payload form — is bit-identical to a checker that never heard of
// triage.
func TestTriageTrivialBandBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TriageLo, cfg.TriageHi = 0, 1
	trivial, corpus := trainedCheckerCfg(t, 120, cfg)
	flat, _ := trainedCheckerCfg(t, 120, DefaultConfig())

	p := corpus.Program(3)
	raw, err := apk.Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		s    Submission
	}{
		{"raw", Submission{Raw: raw}},
		{"program", Submission{Program: corpus.Program(8)}},
	} {
		got, err := trivial.Vet(context.Background(), sub.s)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		want, err := flat.Vet(context.Background(), sub.s)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: trivial-band verdict diverged:\n got  %+v\n want %+v", sub.name, got, want)
		}
		if got.Tier != 2 {
			t.Errorf("%s: trivial-band tier = %d, want 2", sub.name, got.Tier)
		}
		again, out, err := trivial.VetOutcome(context.Background(), sub.s)
		if err != nil {
			t.Fatalf("%s resubmit: %v", sub.name, err)
		}
		if !out.Served() || !reflect.DeepEqual(again, want) {
			t.Errorf("%s: cached trivial-band verdict diverged (outcome %v)", sub.name, out)
		}
	}
	if hits := trivial.Obs().Counter("triage.hit").Load(); hits != 0 {
		t.Errorf("trivial band short-circuited %d submissions", hits)
	}
}

// TestTriageShortCircuitAndBandEquivalence is the tentpole's equivalence
// discipline for a non-trivial band: every in-band (tier-2) verdict is
// bit-identical to the flat checker's, every short-circuited verdict is a
// well-formed tier-1 answer, both tiers actually occur, and cached
// re-answers of tier-1 verdicts survive with their tier intact.
func TestTriageShortCircuitAndBandEquivalence(t *testing.T) {
	tiered, flat, corpus := tieredAndFlat(t, 200)

	var tier1, tier2 int
	firstTier1 := -1
	for i := 0; i < corpus.Len(); i++ {
		sub := Submission{Program: corpus.Program(i)}
		got, err := tiered.Vet(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		switch got.Tier {
		case 2:
			tier2++
			want, err := flat.Vet(context.Background(), sub)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("app %d: in-band verdict diverged from flat checker:\n got  %+v\n want %+v",
					i, got, want)
			}
		case 1:
			tier1++
			if firstTier1 < 0 {
				firstTier1 = i
			}
			if got.Engine != "triage.static" {
				t.Fatalf("app %d: tier-1 engine = %q", i, got.Engine)
			}
			if got.ScanTime <= 0 || got.ScanTime >= time.Millisecond {
				t.Fatalf("app %d: tier-1 scan time = %v, want microseconds", i, got.ScanTime)
			}
			if got.OverallTime != got.ScanTime+pipeline.FixedOverhead {
				t.Fatalf("app %d: tier-1 overall time = %v", i, got.OverallTime)
			}
			if got.Package != corpus.Program(i).PackageName || got.Digest != sub.ContentDigest() || got.Digest == "" {
				t.Fatalf("app %d: tier-1 identity = %q / %q", i, got.Package, got.Digest)
			}
			// The band straddles 0.5, so the malicious call and the logit
			// sign must agree, exactly as they do for forest margins.
			if got.Malicious != (got.Score > 0) {
				t.Fatalf("app %d: tier-1 malicious=%v disagrees with score %v", i, got.Malicious, got.Score)
			}
		default:
			t.Fatalf("app %d: tier = %d", i, got.Tier)
		}
	}
	if tier1 == 0 || tier2 == 0 {
		t.Fatalf("degenerate tier mix: %d tier-1, %d tier-2 — band %v..%v needs tuning",
			tier1, tier2, testBandLo, testBandHi)
	}
	t.Logf("tier mix over %d apps: %d short-circuited, %d emulated", corpus.Len(), tier1, tier2)

	obs := tiered.Obs()
	if hits := obs.Counter("triage.hit").Load(); hits != uint64(tier1) {
		t.Errorf("triage.hit = %d, want %d", hits, tier1)
	}
	if band := obs.Counter("triage.band").Load(); band != uint64(tier2) {
		t.Errorf("triage.band = %d, want %d", band, tier2)
	}

	// A short-circuited submission resubmits as a cache hit with the tier
	// intact — tier-1 verdicts are memoized exactly like tier-2 ones.
	runs0 := emulator.RunCount()
	v, out, err := tiered.VetOutcome(context.Background(), Submission{Program: corpus.Program(firstTier1)})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Served() || v.Tier != 1 {
		t.Errorf("tier-1 resubmit: outcome %v, tier %d", out, v.Tier)
	}
	if runs := emulator.RunCount() - runs0; runs != 0 {
		t.Errorf("tier-1 resubmit paid %d emulations", runs)
	}

	// The same app short-circuits as a raw archive too, keyed on the
	// archive's digest and named by its manifest.
	p := corpus.Program(firstTier1)
	raw, err := apk.Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	rawV, err := tiered.Vet(context.Background(), Submission{Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	if rawV.Tier != 1 || rawV.Digest != apk.Digest(raw) || rawV.Package != p.PackageName {
		t.Errorf("raw tier-1 verdict: %+v", rawV)
	}
}

// TestTriageMeanCostReduction is the perf claim: on a confident-heavy
// submission mix the tiered pipeline's mean virtual scan cost is at least
// 3x below the flat pipeline's. Virtual-clock determinism makes this a
// hard assertion, not a flaky benchmark.
func TestTriageMeanCostReduction(t *testing.T) {
	tiered, flat, corpus := tieredAndFlat(t, 200)

	var tieredTotal, flatTotal time.Duration
	for i := 0; i < corpus.Len(); i++ {
		sub := Submission{Program: corpus.Program(i)}
		tv, err := tiered.Vet(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		fv, err := flat.Vet(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		tieredTotal += tv.ScanTime
		flatTotal += fv.ScanTime
	}
	reduction := float64(flatTotal) / float64(tieredTotal)
	t.Logf("mean scan cost: flat %v, tiered %v — %.1fx reduction",
		flatTotal/time.Duration(corpus.Len()), tieredTotal/time.Duration(corpus.Len()), reduction)
	if reduction < 3 {
		t.Errorf("mean scan-cost reduction = %.2fx, want >= 3x", reduction)
	}
}

// TestTriageSwapAndBandChange: a model swap invalidates tier-1 verdicts
// exactly like tier-2 ones (single epoch bump), and SetTriageBand is a
// full swap — widening the band to trivial turns the tier off for the
// same submission.
func TestTriageSwapAndBandChange(t *testing.T) {
	tiered, _, corpus := tieredAndFlat(t, 200)

	firstTier1 := -1
	for i := 0; i < corpus.Len(); i++ {
		v, err := tiered.Vet(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier == 1 {
			firstTier1 = i
			break
		}
	}
	if firstTier1 < 0 {
		t.Fatal("no submission short-circuited")
	}
	sub := Submission{Program: corpus.Program(firstTier1)}

	// Same parts, new generation: the cached tier-1 verdict must not
	// survive the epoch bump.
	info, err := tiered.SwapModel(tiered.Parts())
	if err != nil {
		t.Fatal(err)
	}
	v, out, err := tiered.VetOutcome(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if out.Served() {
		t.Errorf("tier-1 verdict survived a model swap (outcome %v)", out)
	}
	if v.Tier != 1 || v.Generation != info.ID {
		t.Errorf("post-swap verdict: tier %d generation %d, want tier 1 generation %d", v.Tier, v.Generation, info.ID)
	}

	// Trivial band: the tier goes dark and the very same submission pays
	// the full pipeline.
	if _, err := tiered.SetTriageBand(0, 1); err != nil {
		t.Fatal(err)
	}
	if lo, hi := tiered.TriageBand(); lo != 0 || hi != 1 {
		t.Fatalf("band after SetTriageBand(0,1) = [%v, %v]", lo, hi)
	}
	v, err = tiered.Vet(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if v.Tier != 2 {
		t.Errorf("tier after disabling band = %d, want 2", v.Tier)
	}

	for _, bad := range [][2]float64{{-0.1, 0.5}, {0.5, 1.1}, {0.7, 0.3}} {
		if _, err := tiered.SetTriageBand(bad[0], bad[1]); err == nil {
			t.Errorf("SetTriageBand(%v, %v) accepted an invalid band", bad[0], bad[1])
		}
	}
}

// TestTriagePersistWarmStart: tier-1 verdicts ride the persistent
// warm-start tier like any other — a restarted tiered checker answers a
// previously short-circuited submission from the restored snapshot,
// bit-identically, tier intact.
func TestTriagePersistWarmStart(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.VerdictPersistDir = dir
	cfg.TriageLo, cfg.TriageHi = testBandLo, testBandHi
	ck1, corpus := trainedCheckerCfg(t, 200, cfg)

	baseline := make(map[int]*Verdict)
	for i := 0; i < 20; i++ {
		v, err := ck1.Vet(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = v
	}
	if err := ck1.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	ck2, err := NewFromParts(ck1.Parts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.ClosePersist()
	if ps := ck2.PersistStats(); ps.Restored != 20 {
		t.Fatalf("restart restored %d entries, want 20: %+v", ps.Restored, ps)
	}
	sawTier1 := false
	for i := 0; i < 20; i++ {
		v, out, err := ck2.VetOutcome(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		if out != vcache.OutcomeHit {
			t.Fatalf("sub %d: restart outcome = %v, want hit", i, out)
		}
		if *v != *baseline[i] {
			t.Fatalf("sub %d: restored verdict differs:\n  before %+v\n  after  %+v", i, *baseline[i], *v)
		}
		if v.Tier == 1 {
			sawTier1 = true
		}
	}
	if !sawTier1 {
		t.Error("no tier-1 verdict among the warm-started 20 — band needs tuning")
	}
}
