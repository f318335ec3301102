package lifecycle

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/modelstore"
)

// trainedChecker trains a small serving checker over a fresh universe.
func trainedChecker(t *testing.T, apps int) (*core.Checker, *dataset.Corpus) {
	t.Helper()
	u := framework.MustGenerate(framework.TestConfig(3000))
	dcfg := dataset.DefaultConfig()
	dcfg.NumApps = apps
	corpus, err := dataset.Generate(u, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := core.TrainFromCorpus(corpus, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ck, corpus
}

// refreshedCorpus builds a second labelled corpus over the same universe
// (the "original dataset plus newly labelled submissions" of §5.3).
func refreshedCorpus(t *testing.T, u *framework.Universe, apps int, seed int64) *dataset.Corpus {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.NumApps = apps
	dcfg.Seed = seed
	c, err := dataset.Generate(u, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// vetAll vets the first n corpus programs and returns the verdicts.
func vetAll(t *testing.T, ck *core.Checker, c *dataset.Corpus, n int) []*core.Verdict {
	t.Helper()
	out := make([]*core.Verdict, n)
	for i := 0; i < n; i++ {
		v, err := ck.Vet(context.Background(), core.Submission{Program: c.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// sameVerdictsModuloGeneration compares verdicts field by field ignoring
// Generation (two checkers serving the same model report their own swap
// counters).
func sameVerdictsModuloGeneration(a, b []*core.Verdict) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := *a[i], *b[i]
		x.Generation, y.Generation = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// TestSnapshotColdStartBitIdentical: a checker restored from the on-disk
// registry produces bit-identical verdicts to the one that snapshotted it.
func TestSnapshotColdStartBitIdentical(t *testing.T) {
	ck, corpus := trainedChecker(t, 260)
	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ck, reg, DefaultGateConfig())
	dig, err := m.Snapshot("initial")
	if err != nil {
		t.Fatal(err)
	}

	cold, man, err := ColdStart(reg)
	if err != nil {
		t.Fatal(err)
	}
	if man.Digest != dig {
		t.Fatalf("cold-start manifest digest %q, want %q", man.Digest, dig)
	}
	if g := cold.Generation(); g.Digest != dig {
		t.Fatalf("cold-start generation digest %q, want %q", g.Digest, dig)
	}

	want := vetAll(t, ck, corpus, 24)
	// The cold checker has its own (replayed) universe; regenerate the
	// same programs over it to prove the replay is bit-identical too.
	coldCorpus := refreshedCorpus(t, cold.Universe(), corpus.Len(), corpus.Config().Seed)
	got := vetAll(t, cold, coldCorpus, 24)
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("verdict %d diverges after cold start:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestEvolvePromotes: a passing challenger is stored, marked current, and
// hot-swapped in; the registry records lineage and quality.
func TestEvolvePromotes(t *testing.T) {
	ck, _ := trainedChecker(t, 260)
	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ck, reg, GateConfig{MaxF1Drop: 1, MaxAUCDrop: 1, MinHoldout: 20})
	root, err := m.Snapshot("initial")
	if err != nil {
		t.Fatal(err)
	}

	c2 := refreshedCorpus(t, ck.Universe(), 300, 2)
	res, err := m.Evolve(context.Background(), c2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.Digest == "" {
		t.Fatalf("permissive gates did not promote: %+v", res.Shadow)
	}
	if res.Generation.ID != 2 || ck.Generation().ID != 2 {
		t.Fatalf("serving generation = %d, want 2", ck.Generation().ID)
	}
	if ck.Generation().Digest != res.Digest {
		t.Fatalf("serving digest %q != promoted %q", ck.Generation().Digest, res.Digest)
	}

	cur, err := reg.CurrentDigest()
	if err != nil || cur != res.Digest {
		t.Fatalf("registry current = %q, %v; want %q", cur, err, res.Digest)
	}
	man, err := reg.Manifest(res.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if man.Parent != root {
		t.Fatalf("promoted manifest parent %q, want %q", man.Parent, root)
	}
	if man.Quality == nil || man.TrainReport == nil || man.CorpusFingerprint == "" {
		t.Fatalf("promoted manifest missing provenance: %+v", man)
	}
	if man.CorpusFingerprint != Fingerprint(c2) {
		t.Fatal("corpus fingerprint does not identify the training corpus")
	}

	st := m.State()
	if st.Promotions != 1 || st.Trains != 1 || st.Rejections != 0 {
		t.Fatalf("state counters: %+v", st)
	}
	if st.LastShadow == nil || !st.LastShadow.Pass {
		t.Fatalf("state shadow report: %+v", st.LastShadow)
	}
}

// TestEvolveGateRejects: an impossible gate leaves the champion serving
// and the registry untouched.
func TestEvolveGateRejects(t *testing.T) {
	ck, corpus := trainedChecker(t, 260)
	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Demanding the challenger beat the champion's F1 by 2 is impossible
	// (F1 ≤ 1), so every challenger is rejected.
	m := NewManager(ck, reg, GateConfig{MaxF1Drop: -2, MaxAUCDrop: 1, MinHoldout: 20})
	root, err := m.Snapshot("initial")
	if err != nil {
		t.Fatal(err)
	}
	before := vetAll(t, ck, corpus, 12)
	epoch0 := ck.CacheStats().Epoch

	res, err := m.Evolve(context.Background(), refreshedCorpus(t, ck.Universe(), 300, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatal("impossible gate promoted a challenger")
	}
	if res.Shadow.Pass || res.Shadow.Reason == "" {
		t.Fatalf("shadow report should explain the rejection: %+v", res.Shadow)
	}

	// Champion untouched: same generation, same verdicts, no epoch bump.
	// (An in-memory-trained generation carries no digest; identity is the ID
	// plus the manager's tracked current digest.)
	if g := ck.Generation(); g.ID != 1 {
		t.Fatalf("champion disturbed by rejection: %+v", g)
	}
	if st := m.State(); st.CurrentDigest != root {
		t.Fatalf("manager current digest %q after rejection, want %q", st.CurrentDigest, root)
	}
	if e := ck.CacheStats().Epoch; e != epoch0 {
		t.Fatalf("cache epoch bumped %d times by a rejected challenger", e-epoch0)
	}
	after := vetAll(t, ck, corpus, 12)
	for i := range before {
		if !reflect.DeepEqual(before[i], after[i]) {
			t.Fatalf("verdict %d changed across a rejected evolution", i)
		}
	}

	// Registry untouched: still exactly the root generation, still current.
	list, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Digest != root {
		t.Fatalf("registry grew on rejection: %+v", list)
	}
	if cur, _ := reg.CurrentDigest(); cur != root {
		t.Fatalf("registry current moved to %q on rejection", cur)
	}
	if st := m.State(); st.Rejections != 1 || st.Promotions != 0 {
		t.Fatalf("state counters: %+v", st)
	}
}

// TestEvolveKeepsTheServingPersistLog: training a challenger must not touch
// the serving checker's node config. A challenger that opened the serving
// checker's persist directory under its own key would replace the log, and
// the champion's appends would land in an unlinked file: the next restart
// would warm-start empty.
func TestEvolveKeepsTheServingPersistLog(t *testing.T) {
	u := framework.MustGenerate(framework.TestConfig(3000))
	corpus := refreshedCorpus(t, u, 260, 1)
	cfg := core.DefaultConfig()
	cfg.VerdictPersistDir = t.TempDir()
	ck, _, err := core.TrainFromCorpus(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		raw, err := apk.Build(corpus.Program(i), u)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ck.Vet(context.Background(), core.Submission{Raw: raw}); err != nil {
			t.Fatal(err)
		}
	}
	// An impossible gate, so the champion keeps serving and keeps its log.
	m := NewManager(ck, reg, GateConfig{MaxF1Drop: -2, MaxAUCDrop: 1, MinHoldout: 20})
	if _, err := m.Evolve(context.Background(), refreshedCorpus(t, u, 300, 2)); err != nil {
		t.Fatal(err)
	}
	// The shadow evaluation vets the holdout on the champion too, so the
	// log holds at least the n archives.
	want := ck.CacheStats().Entries
	if err := ck.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	reopened, err := core.NewFromParts(ck.Parts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.ClosePersist()
	if got := reopened.PersistStats().Restored; got != uint64(want) || got < n {
		t.Fatalf("restart after Evolve restored %d entries, want the champion's %d (>= %d)", got, want, n)
	}
}

// TestRollback: restoring a prior generation brings back its exact
// verdicts, flips CURRENT, and bumps the cache epoch exactly once.
func TestRollback(t *testing.T) {
	ck, corpus := trainedChecker(t, 260)
	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ck, reg, GateConfig{MaxF1Drop: 1, MaxAUCDrop: 1, MinHoldout: 20})
	root, err := m.Snapshot("initial")
	if err != nil {
		t.Fatal(err)
	}
	rootVerdicts := vetAll(t, ck, corpus, 12)

	res, err := m.Evolve(context.Background(), refreshedCorpus(t, ck.Universe(), 300, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("setup: promotion failed: %+v", res.Shadow)
	}
	promoted := vetAll(t, ck, corpus, 12)
	if sameVerdictsModuloGeneration(rootVerdicts, promoted) {
		t.Log("note: promoted model scored the probe set identically; rollback still verified via digests")
	}

	epoch1 := ck.CacheStats().Epoch
	gen, err := m.Rollback(root)
	if err != nil {
		t.Fatal(err)
	}
	if gen.ID != 3 || gen.Digest != root {
		t.Fatalf("rollback generation: %+v", gen)
	}
	if e := ck.CacheStats().Epoch; e != epoch1+1 {
		t.Fatalf("rollback bumped the epoch %d times, want exactly 1", e-epoch1)
	}
	if cur, _ := reg.CurrentDigest(); cur != root {
		t.Fatalf("registry current %q after rollback, want %q", cur, root)
	}

	restored := vetAll(t, ck, corpus, 12)
	if !sameVerdictsModuloGeneration(rootVerdicts, restored) {
		t.Fatal("rollback did not restore the prior generation's verdicts")
	}
	for _, v := range restored {
		if v.Generation != 3 {
			t.Fatalf("post-rollback verdict generation %d, want 3", v.Generation)
		}
	}
	if st := m.State(); st.Rollbacks != 1 {
		t.Fatalf("state counters: %+v", st)
	}

	// Rolling back to an unknown digest is a typed registry error.
	if _, err := m.Rollback("deadbeef"); !errors.Is(err, modelstore.ErrNotFound) {
		t.Fatalf("rollback to unknown digest: %v", err)
	}
}

// TestFingerprintDistinguishesCorpora: the fingerprint identifies content,
// not identity.
func TestFingerprintDistinguishesCorpora(t *testing.T) {
	u := framework.MustGenerate(framework.TestConfig(3000))
	c1 := refreshedCorpus(t, u, 60, 1)
	c1b := refreshedCorpus(t, u, 60, 1)
	c2 := refreshedCorpus(t, u, 60, 2)
	if Fingerprint(c1) != Fingerprint(c1b) {
		t.Fatal("identical corpora fingerprint differently")
	}
	if Fingerprint(c1) == Fingerprint(c2) {
		t.Fatal("different corpora share a fingerprint")
	}
	if len(c1.Apps) == 0 || c1.Apps[0].Label != c1b.Apps[0].Label {
		t.Fatal("corpus regeneration is not deterministic")
	}
	_ = behavior.Malicious
}
