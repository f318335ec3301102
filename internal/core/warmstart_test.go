package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"apichecker/internal/emulator"
	"apichecker/internal/framework"
	"apichecker/internal/ml"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
)

// TestPersistWarmStart is the kill-and-restart scenario: a checker with a
// persist directory vets submissions, shuts down, and a fresh checker
// built from the same parts and the same directory answers the replayed
// submissions entirely from the restored snapshot — zero emulations,
// verdicts bit-identical to the first run.
func TestPersistWarmStart(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.VerdictPersistDir = dir
	ck1, corpus := trainedCheckerCfg(t, 300, cfg)

	const nSubs = 6
	baseline := make([]*Verdict, nSubs)
	for i := 0; i < nSubs; i++ {
		v, out, err := ck1.VetOutcome(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		if out != vcache.OutcomeMiss {
			t.Fatalf("sub %d: first vet outcome = %v, want miss", i, out)
		}
		baseline[i] = v
	}
	ps := ck1.PersistStats()
	if !ps.Enabled || ps.Appends != nSubs {
		t.Fatalf("first run persist stats = %+v, want %d appends", ps, nSubs)
	}
	if err := ck1.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second checker from the same trained parts, pointed at
	// the same directory.
	ck2, err := NewFromParts(ck1.Parts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.ClosePersist()
	ps = ck2.PersistStats()
	if ps.Restored != nSubs || ps.Skipped != 0 {
		t.Fatalf("restart persist stats = %+v, want %d restored", ps, nSubs)
	}

	runs0 := emulator.RunCount()
	for i := 0; i < nSubs; i++ {
		v, out, err := ck2.VetOutcome(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		if out != vcache.OutcomeHit {
			t.Fatalf("sub %d: replayed vet outcome = %v, want warm-start hit", i, out)
		}
		if *v != *baseline[i] {
			t.Fatalf("sub %d: restored verdict differs:\n  first run %+v\n  restart   %+v", i, *baseline[i], *v)
		}
		if d, _ := corpus.Program(i).ContentDigest(); v.Digest != d {
			t.Fatalf("sub %d: restored verdict carries digest %q, want the key it was stored under, %q", i, v.Digest, d)
		}
	}
	if runs := emulator.RunCount() - runs0; runs != 0 {
		t.Fatalf("restart re-emulated %d submissions, want 0", runs)
	}
}

// TestPersistSwapInvalidates: a lifecycle swap must invalidate the
// persisted tier exactly like the in-memory epoch bump — verdicts
// appended before the swap never survive a restart.
func TestPersistSwapInvalidates(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.VerdictPersistDir = dir
	ck1, corpus := trainedCheckerCfg(t, 300, cfg)

	if _, _, err := ck1.VetOutcome(context.Background(), Submission{Program: corpus.Program(0)}); err != nil {
		t.Fatal(err)
	}
	if ps := ck1.PersistStats(); ps.Appends != 1 {
		t.Fatalf("pre-swap persist stats = %+v", ps)
	}
	if _, err := ck1.SwapModel(ck1.Parts()); err != nil {
		t.Fatal(err)
	}
	ps := ck1.PersistStats()
	if ps.Resets != 1 {
		t.Fatalf("post-swap persist stats = %+v, want 1 reset", ps)
	}
	if err := ck1.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	ck2, err := NewFromParts(ck1.Parts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.ClosePersist()
	if ps := ck2.PersistStats(); ps.Restored != 0 {
		t.Fatalf("restart after swap restored %d entries, want 0", ps.Restored)
	}
	runs0 := emulator.RunCount()
	if _, out, err := ck2.VetOutcome(context.Background(), Submission{Program: corpus.Program(0)}); err != nil {
		t.Fatal(err)
	} else if out != vcache.OutcomeMiss {
		t.Fatalf("post-swap restart vet outcome = %v, want miss", out)
	}
	if runs := emulator.RunCount() - runs0; runs != 1 {
		t.Fatalf("post-swap restart emulations = %d, want 1", runs)
	}
}

// TestPersistKeyCoversEveryPart: the no-digest persist key is a hash of
// everything that shapes a verdict, so changing any one part re-keys the
// log (the persisted verdicts are discarded, not served under a model they
// were not computed by), while training twice from the same corpus and
// config — or changing only how many lanes serve — keeps it.
func TestPersistKeyCoversEveryPart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TriageLo, cfg.TriageHi = testBandLo, testBandHi
	base, _ := trainedCheckerCfg(t, 200, cfg)
	again, _ := trainedCheckerCfg(t, 200, cfg)

	keyOf := func(parts ModelParts, cfg Config) string {
		t.Helper()
		// The keys were selected over testU, and another universe may
		// refuse to hook them: assemble over testU and hand the key the
		// universe under test.
		u := parts.Universe
		parts.Universe = testU
		ck, err := NewFromParts(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ck.gen.Load().u = u
		key, err := ck.persistGenKey()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	parts := base.Parts()
	want := keyOf(parts, cfg)
	if !strings.HasPrefix(want, "export:") {
		t.Fatalf("no-digest key = %q, want an export: key", want)
	}
	if got := keyOf(again.Parts(), cfg); got != want {
		t.Error("two trainings from the same corpus and config key differently")
	}

	ucfg := testU.Config()
	rebuild := func(c framework.Config, seeds ...int64) *framework.Universe {
		u, err := framework.Rebuild(c, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	otherSeed := ucfg
	otherSeed.Seed++
	forest, err := parts.Model.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	forest[len(forest)-1] ^= 0x40 // the last node's leaf probability
	oneNode, _, err := ml.DecodeForestBinary(forest)
	if err != nil {
		t.Fatal(err)
	}
	fewerKeys := *parts.Selection
	fewerKeys.Keys = fewerKeys.Keys[1:]
	weight := *parts.Triage
	weight.W = append([]float64(nil), weight.W...)
	weight.W[0]++
	fallback := cfg.Profile
	fallback.Fallback = &emulator.RealDevice

	withParts := func(edit func(*ModelParts)) (ModelParts, Config) {
		p := parts
		edit(&p)
		return p, cfg
	}
	withCfg := func(edit func(*Config)) (ModelParts, Config) {
		c := cfg
		edit(&c)
		return parts, c
	}
	changed := map[string]func() (ModelParts, Config){
		"universe config":  func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Universe = rebuild(otherSeed) }) },
		"SDK level":        func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Universe = rebuild(ucfg, 9) }) },
		"selection key":    func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Selection = &fewerKeys }) },
		"forest node":      func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Model = oneNode }) },
		"triage weight":    func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Triage = &weight }) },
		"band lower edge":  func() (ModelParts, Config) { return withCfg(func(c *Config) { c.TriageLo = testBandLo / 2 }) },
		"band upper edge":  func() (ModelParts, Config) { return withCfg(func(c *Config) { c.TriageHi = 0.99 }) },
		"Profile fallback": func() (ModelParts, Config) { return withCfg(func(c *Config) { c.Profile = fallback }) },
	}
	for name, variant := range changed {
		if got := keyOf(variant()); got == want {
			t.Errorf("changing the %s left the persist key unchanged", name)
		}
	}
	// Evolve history at one SDK level: same level, different release.
	evolved := func(seed int64) string {
		return keyOf(withParts(func(p *ModelParts) { p.Universe = rebuild(ucfg, seed) }))
	}
	if evolved(9) == evolved(10) {
		t.Error("changing the evolve history left the persist key unchanged")
	}
	// The key holds the whole Config less the fields it names as shaping
	// no verdict, so nudging any other leaf — including one a later change
	// adds, which this walk reaches without being told — must re-key.
	shapesNone := map[string]bool{"VerdictCache": true, "VerdictPersistDir": true, "Lanes": true}
	elsewhere := map[string]bool{"TriageLo": true, "TriageHi": true, "Profile.Fallback": true} // cases above
	c := cfg
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i))
			}
			return
		}
		if elsewhere[path] || path == "VerdictPersistDir" {
			return
		}
		old := reflect.ValueOf(v.Interface()) // a copy
		switch {
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanUint():
			v.SetUint(v.Uint() + 1)
		case v.CanFloat():
			v.SetFloat(v.Float() + 0.125)
		case v.Kind() == reflect.String:
			v.SetString(v.String() + "x")
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("Config.%s is a %s: teach this walk to nudge it, and persistGenKey to print it by value", path, v.Kind())
		}
		got := keyOf(parts, c)
		v.Set(old)
		if shapesNone[path] && got != want {
			t.Errorf("Config.%s re-keyed the persist log; it shapes no verdict", path)
		} else if !shapesNone[path] && got == want {
			t.Errorf("changing Config.%s left the persist key unchanged", path)
		}
	}
	walk("", reflect.ValueOf(&c).Elem())

	// A generation that carries an artifact digest keys on it alone, in
	// the form registry-backed deployments have always had on disk.
	if got := keyOf(withParts(func(p *ModelParts) { p.Digest = "abc123" })); got != "model:abc123" {
		t.Errorf("digest-carrying key = %q, want model:abc123", got)
	}
}

// TestPersistSkipsVersion1Entries: a persist log that holds an entry in the
// version-1 layout — what a binary from before the stream move wrote, its
// verdict drawn from streams this one no longer has — restores the entries
// it can read, skips and counts the one it cannot, and answers that
// submission by emulating it.
func TestPersistSkipsVersion1Entries(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.VerdictPersistDir = dir
	ck1, corpus := trainedCheckerCfg(t, 300, cfg)

	kept, stale := Submission{Program: corpus.Program(0)}, Submission{Program: corpus.Program(1)}
	want, err := ck1.Vet(context.Background(), kept)
	if err != nil {
		t.Fatal(err)
	}
	// The v1 layout: version byte 1, then package, version code, a
	// length-prefixed MD5, and the fields version 2 still has. The rest of
	// the entry is beside the point — the version byte alone refuses it.
	v1 := []byte{1, 7, 0, 0, 0, 'c', 'o', 'm', '.', 'o', 'l', 'd'}
	if _, err := pipeline.DecodeCachedVerdict(v1); !errors.Is(err, pipeline.ErrBadEntry) {
		t.Fatalf("v1 entry decodes: %v", err)
	}
	if err := ck1.persist.AppendCurrent(stale.ContentDigest(), v1, ck1.cache.Epoch()); err != nil {
		t.Fatal(err)
	}
	if err := ck1.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	ck2, err := NewFromParts(ck1.Parts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.ClosePersist()
	if ps := ck2.PersistStats(); ps.Restored != 1 || ps.Skipped != 1 {
		t.Fatalf("restart persist stats = %+v, want 1 restored and 1 skipped", ps)
	}
	v, out, err := ck2.VetOutcome(context.Background(), kept)
	if err != nil || out != vcache.OutcomeHit || *v != *want {
		t.Fatalf("readable entry: %+v, %v, %v; want a hit equal to %+v", v, out, err, want)
	}
	if _, out, err = ck2.VetOutcome(context.Background(), stale); err != nil || out != vcache.OutcomeMiss {
		t.Fatalf("submission under the v1 entry: outcome %v, %v; want a miss", out, err)
	}
}
