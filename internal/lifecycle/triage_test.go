package lifecycle

import (
	"context"
	"reflect"
	"testing"

	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/modelstore"
)

// tieredChecker trains a checker with a non-trivial triage band so a
// slice of submissions short-circuits at tier 1.
func tieredChecker(t *testing.T, apps int) (*core.Checker, *dataset.Corpus) {
	t.Helper()
	u := framework.MustGenerate(framework.TestConfig(3000))
	dcfg := dataset.DefaultConfig()
	dcfg.NumApps = apps
	corpus, err := dataset.Generate(u, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.TriageLo, cfg.TriageHi = 0.05, 0.95
	ck, _, err := core.TrainFromCorpus(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ck, corpus
}

// tierCounts tallies verdict tiers.
func tierCounts(vs []*core.Verdict) (tier1, tier2 int) {
	for _, v := range vs {
		switch v.Tier {
		case 1:
			tier1++
		default:
			tier2++
		}
	}
	return tier1, tier2
}

// vetIdxs vets the corpus programs at the given indices.
func vetIdxs(t *testing.T, ck *core.Checker, c *dataset.Corpus, idxs []int) []*core.Verdict {
	t.Helper()
	out := make([]*core.Verdict, len(idxs))
	for i, idx := range idxs {
		v, err := ck.Vet(context.Background(), core.Submission{Program: c.Program(idx)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// TestTriageSurvivesLifecycle: the tier-1 model and its band ride the
// full lifecycle loop — snapshot, cold start, challenger promotion, and
// rollback — and keep short-circuiting identically at every hop.
func TestTriageSurvivesLifecycle(t *testing.T) {
	ck, corpus := tieredChecker(t, 260)
	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ck, reg, GateConfig{MaxF1Drop: 1, MaxAUCDrop: 1, MinHoldout: 20})
	root, err := m.Snapshot("tiered root")
	if err != nil {
		t.Fatal(err)
	}

	// Scan for a tier-mixed probe set: with a wide band most submissions
	// short-circuit, so in-band (tier-2) probes are rare and must be found.
	scan := vetAll(t, ck, corpus, corpus.Len())
	var idxs []int
	var n1, n2 int
	for i, v := range scan {
		if v.Tier == 1 && n1 < 12 {
			idxs, n1 = append(idxs, i), n1+1
		}
		if v.Tier == 2 && n2 < 12 {
			idxs, n2 = append(idxs, i), n2+1
		}
	}
	if n1 == 0 || n2 == 0 {
		t.Fatalf("corpus not tier-mixed under band [0.05, 0.95]: %d tier-1, %d tier-2", n1, n2)
	}
	rootVerdicts := vetIdxs(t, ck, corpus, idxs)
	t1, t2 := tierCounts(rootVerdicts)

	// Cold start: the restored checker carries the triage model and band
	// from the artifact and answers bit-identically.
	cold, _, err := ColdStart(reg)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := cold.TriageBand(); lo != 0.05 || hi != 0.95 {
		t.Fatalf("cold-start triage band [%v, %v], want [0.05, 0.95]", lo, hi)
	}
	coldCorpus := refreshedCorpus(t, cold.Universe(), corpus.Len(), corpus.Config().Seed)
	coldVerdicts := vetIdxs(t, cold, coldCorpus, idxs)
	for i := range rootVerdicts {
		if !reflect.DeepEqual(rootVerdicts[i], coldVerdicts[i]) {
			t.Fatalf("verdict %d diverges after cold start:\n got %+v\nwant %+v",
				i, coldVerdicts[i], rootVerdicts[i])
		}
	}

	// Promotion: the challenger retrains with its own triage model; the
	// promoted generation keeps the band and keeps short-circuiting.
	res, err := m.Evolve(context.Background(), refreshedCorpus(t, ck.Universe(), 300, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("permissive gates did not promote: %+v", res.Shadow)
	}
	if lo, hi := ck.TriageBand(); lo != 0.05 || hi != 0.95 {
		t.Fatalf("promotion dropped the triage band: [%v, %v]", lo, hi)
	}
	promoted := vetIdxs(t, ck, corpus, idxs)
	p1, _ := tierCounts(promoted)
	if p1 == 0 {
		t.Fatal("promoted generation never short-circuits: challenger lost its triage model")
	}
	for _, v := range promoted {
		if v.Generation != res.Generation.ID {
			t.Fatalf("post-promotion verdict generation %d, want %d", v.Generation, res.Generation.ID)
		}
	}

	// The promoted artifact in the registry carries the triage section:
	// instantiating it reproduces the serving verdicts.
	a, _, err := reg.Current()
	if err != nil {
		t.Fatal(err)
	}
	if a.Triage == nil {
		t.Fatal("promoted artifact has no triage model")
	}
	reck, err := a.Instantiate(core.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reCorpus := refreshedCorpus(t, reck.Universe(), corpus.Len(), corpus.Config().Seed)
	reVerdicts := vetIdxs(t, reck, reCorpus, idxs)
	if !sameVerdictsModuloGeneration(promoted, reVerdicts) {
		t.Fatal("registry replica of the promoted generation diverges from the serving checker")
	}

	// Rollback: the root generation's triage behaviour comes back exactly
	// — same tier split, same verdicts modulo the generation counter.
	if _, err := m.Rollback(root); err != nil {
		t.Fatal(err)
	}
	if lo, hi := ck.TriageBand(); lo != 0.05 || hi != 0.95 {
		t.Fatalf("rollback dropped the triage band: [%v, %v]", lo, hi)
	}
	restored := vetIdxs(t, ck, corpus, idxs)
	if !sameVerdictsModuloGeneration(rootVerdicts, restored) {
		t.Fatal("rollback did not restore the root generation's tiered verdicts")
	}
	r1, r2 := tierCounts(restored)
	if r1 != t1 || r2 != t2 {
		t.Fatalf("rollback tier split %d/%d, want the root's %d/%d", r1, r2, t1, t2)
	}
}
