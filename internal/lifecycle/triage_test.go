package lifecycle

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// TestRollbackRestoresTheArtifactBand: a rollback installs the artifact's
// triage band with its parts, whatever band was serving, so the checker
// snapshots back to the digest it rolled back to; a node adopting the
// artifact takes the band in the same single swap.
func TestRollbackRestoresTheArtifactBand(t *testing.T) {
	ck, _ := tieredChecker(t, 120)
	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ck, reg, GateConfig{})
	root, err := m.Snapshot("tiered root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.SetTriageBand(0.2, 0.8); err != nil {
		t.Fatal(err)
	}
	gen, err := m.Rollback(root)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := ck.TriageBand(); lo != 0.05 || hi != 0.95 {
		t.Errorf("rollback serves band [%v, %v], want the artifact's [0.05, 0.95]", lo, hi)
	}
	if gen.Digest != root {
		t.Errorf("rollback generation digest %.12s, want %.12s", gen.Digest, root)
	}
	a, err := modelstore.Snapshot(ck)
	if err != nil {
		t.Fatal(err)
	}
	if dig, err := a.Digest(); err != nil || dig != root {
		t.Errorf("snapshot after rollback: digest %.12s (%v), want %.12s", dig, err, root)
	}

	// The node path: adopting the artifact under another band is one swap.
	if _, err := ck.SetTriageBand(0.2, 0.8); err != nil {
		t.Fatal(err)
	}
	before := ck.Generation().ID
	if gen, err = ck.Adopt(a); err != nil {
		t.Fatal(err)
	}
	if lo, hi := ck.TriageBand(); lo != 0.05 || hi != 0.95 || gen.ID != before+1 {
		t.Errorf("adopt: band [%v, %v] at generation %d, want [0.05, 0.95] at %d", lo, hi, gen.ID, before+1)
	}
}

// TestBandOverrideDiscardsPersistedVerdicts: a band override is another
// generation with another digest, so a persist log written under it is
// discarded by a later cold start under the artifact's band instead of
// warm-starting verdicts that band would not give.
func TestBandOverrideDiscardsPersistedVerdicts(t *testing.T) {
	ck, _ := tieredChecker(t, 120)
	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(ck, reg, GateConfig{}).Snapshot("tiered root"); err != nil {
		t.Fatal(err)
	}
	coldStart := func() *core.Checker {
		t.Helper()
		c, _, err := ColdStart(reg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dir := t.TempDir()
	first := coldStart()
	if _, err := first.SetTriageBand(0.45, 0.55); err != nil {
		t.Fatal(err)
	}
	if err := first.AttachPersist(dir); err != nil {
		t.Fatal(err)
	}
	corpus := refreshedCorpus(t, first.Universe(), 60, 1)
	idxs := make([]int, 60)
	for i := range idxs {
		idxs[i] = i
	}
	vetIdxs(t, first, corpus, idxs)
	if err := first.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	second := coldStart()
	if err := second.AttachPersist(dir); err != nil {
		t.Fatal(err)
	}
	defer second.ClosePersist()
	if got := second.PersistStats().Restored; got != 0 {
		t.Errorf("a cold start under the artifact's band restored %d verdicts written under the override", got)
	}
	if got, want := vetIdxs(t, second, corpus, idxs), vetIdxs(t, coldStart(), corpus, idxs); !sameVerdictsModuloGeneration(got, want) {
		t.Error("the second life's verdicts differ from a fresh cold start's")
	}
}

// TestGenerationDigestIsTheArtifactDigest: in every state a generation is
// born in, its digest is the sha256 of the bytes a snapshot holds, and
// those are the encoding of exactly the parts and model config it serves.
func TestGenerationDigestIsTheArtifactDigest(t *testing.T) {
	ck, _ := tieredChecker(t, 120)
	check := func(state string, ck *core.Checker) string {
		t.Helper()
		dig := ck.Generation().Digest
		a, err := core.Snapshot(ck)
		if err != nil {
			t.Fatal(err)
		}
		served, err := core.FromParts(ck.Parts(), ck.Config().ModelConfig)
		if err != nil {
			t.Fatal(err)
		}
		for what, a := range map[string]*core.Artifact{"snapshot": a, "served parts and config": served} {
			data, err := a.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(data); dig != hex.EncodeToString(sum[:]) {
				t.Errorf("%s: generation digest %.12s is not the sha256 of the %s bytes", state, dig, what)
			}
		}
		return dig
	}
	check("trained in-process", ck)

	reg, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ck, reg, GateConfig{})
	root, err := m.Snapshot("root")
	if err != nil {
		t.Fatal(err)
	}
	if dig := check("after Manager.Snapshot", ck); dig != root {
		t.Errorf("after Manager.Snapshot: digest %.12s, want the stored %.12s", dig, root)
	}
	if man, err := reg.Manifest(root); err != nil || man.Parent != "" {
		t.Errorf("first snapshot of an in-process checker: parent %q (%v), want a root", man.Parent, err)
	}

	if _, err := ck.SetTriageBand(0.2, 0.8); err != nil {
		t.Fatal(err)
	}
	if check("after SetTriageBand", ck) == root {
		t.Error("a band override kept the artifact's digest")
	}
	// A manager over the overridden generation, which the registry does
	// not hold, records the next snapshot as a root.
	over, err := NewManager(ck, reg, GateConfig{}).Snapshot("override")
	if err != nil {
		t.Fatal(err)
	}
	if man, err := reg.Manifest(over); err != nil || man.Parent != "" {
		t.Errorf("snapshot over an unregistered generation: parent %q (%v), want a root", man.Parent, err)
	}

	other, _, err := core.TrainFromCorpus(refreshedCorpus(t, ck.Universe(), 120, 2), ck.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.SwapModel(other.Parts()); err != nil {
		t.Fatal(err)
	}
	if check("after SwapModel", ck) == over {
		t.Error("swapping in other parts kept the digest")
	}

	a, _, err := reg.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Adopt(a); err != nil {
		t.Fatal(err)
	}
	if dig := check("after Adopt", ck); dig != root {
		t.Errorf("after Adopt: digest %.12s, want the artifact's %.12s", dig, root)
	}

	if err := reg.SetCurrent(root); err != nil {
		t.Fatal(err)
	}
	cold, _, err := ColdStart(reg)
	if err != nil {
		t.Fatal(err)
	}
	if dig := check("after ColdStart", cold); dig != root {
		t.Errorf("after ColdStart: digest %.12s, want the current %.12s", dig, root)
	}
}
