package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"apichecker/internal/emulator"
	"apichecker/internal/framework"
	"apichecker/internal/ml"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
	"apichecker/internal/wire"
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

// TestPersistKeyCoversEveryPart: the persist key is the generation's
// artifact digest, which covers everything that shapes a verdict, so
// changing any one part or model-config leaf re-keys the log (the
// persisted verdicts are discarded, not served under a model they were
// not computed by), while training twice from the same corpus and config
// — or changing only where the node keeps its verdicts — keeps it.
func TestPersistKeyCoversEveryPart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TriageLo, cfg.TriageHi = testBandLo, testBandHi
	base, _ := trainedCheckerCfg(t, 200, cfg)
	again, _ := trainedCheckerCfg(t, 200, cfg)

	keyOf := func(parts ModelParts, cfg Config) string {
		t.Helper()
		if parts.Universe != testU {
			// The keys were selected over testU, and another universe
			// may refuse to hook them: digest the artifact the way
			// newGeneration does, without assembling a checker over it.
			a, err := FromParts(parts, cfg.ModelConfig)
			if err != nil {
				t.Fatal(err)
			}
			dig, err := a.Digest()
			if err != nil {
				t.Fatal(err)
			}
			return "model:" + dig
		}
		ck, err := NewFromParts(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ck.ClosePersist()
		key := ck.persistGenKey()
		if want := "model:" + ck.Generation().Digest; key != want {
			t.Fatalf("persist key %q, want the generation's %q", key, want)
		}
		return key
	}
	parts := base.Parts()
	want := keyOf(parts, cfg)
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

	withParts := func(edit func(*ModelParts)) (ModelParts, Config) {
		p := parts
		edit(&p)
		return p, cfg
	}
	changed := map[string]func() (ModelParts, Config){
		"universe config": func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Universe = rebuild(otherSeed) }) },
		"SDK level":       func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Universe = rebuild(ucfg, 9) }) },
		"selection key":   func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Selection = &fewerKeys }) },
		"forest node":     func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Model = oneNode }) },
		"triage weight":   func() (ModelParts, Config) { return withParts(func(p *ModelParts) { p.Triage = &weight }) },
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
	// Nudging any ModelConfig leaf — including one a later change adds,
	// which this walk reaches without being told — moves both the codec's
	// bytes and the key; nudging a NodeConfig leaf moves neither.
	codec := func(c *Config) []byte {
		e := wire.Encoder{}
		c.Fields(&e)
		return e.B
	}
	c := cfg
	wantBytes := codec(&c)
	nudgeLeaves(t, "ModelConfig", reflect.ValueOf(&c.ModelConfig).Elem(), func(s string) string { return s + "x" }, func(path string) {
		if bytes.Equal(codec(&c), wantBytes) {
			t.Errorf("changing %s left the model config's bytes unchanged", path)
		}
		if keyOf(parts, c) == want {
			t.Errorf("changing %s left the persist key unchanged", path)
		}
	})
	nudgeLeaves(t, "NodeConfig", reflect.ValueOf(&c.NodeConfig).Elem(), func(string) string { return t.TempDir() }, func(path string) {
		if !bytes.Equal(codec(&c), wantBytes) {
			t.Errorf("changing %s moved the model config's bytes", path)
		}
		if keyOf(parts, c) != want {
			t.Errorf("changing %s re-keyed the persist log; it shapes no verdict", path)
		}
	})

}

// nudgeLeaves changes each leaf under v in turn — every integer, float,
// bool and string, and each pointer's presence before the leaves it points
// to (through a private copy) — calls check with the leaf's path, and
// restores it. Floats are halved, so a band stays a band.
func nudgeLeaves(t *testing.T, path string, v reflect.Value, str func(string) string, check func(path string)) {
	t.Helper()
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			nudgeLeaves(t, path+"."+v.Type().Field(i).Name, v.Field(i), str, check)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch {
	case v.Kind() == reflect.Pointer && v.IsNil():
		v.Set(reflect.New(v.Type().Elem()))
	case v.Kind() == reflect.Pointer:
		v.SetZero()
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.CanFloat() && v.Float() != 0:
		v.SetFloat(v.Float() / 2)
	case v.CanFloat():
		v.SetFloat(0.125)
	case v.Kind() == reflect.String:
		v.SetString(str(v.String()))
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("%s is a %s: teach this walk to nudge it, and the codec to carry it", path, v.Kind())
	}
	check(path)
	v.Set(old)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		cp := reflect.New(v.Type().Elem())
		cp.Elem().Set(v.Elem())
		v.Set(cp)
		nudgeLeaves(t, path, cp.Elem(), str, check)
		v.Set(old)
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
	if _, err := pipeline.DecodeEntry(v1, new(pipeline.Verdict), nil); !errors.Is(err, pipeline.ErrBadEntry) {
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
