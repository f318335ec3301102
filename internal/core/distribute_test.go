package core_test

import (
	"context"
	"reflect"
	"testing"

	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/features"
	"apichecker/internal/framework"
	"apichecker/internal/ml"
	"apichecker/internal/modelstore"
	"apichecker/internal/vcache"
)

// Model distribution (§5.4: "large app markets can possibly distribute
// their trained models to smaller markets, who thus do not need to train
// their own models") rides the APKMODEL artifact. These tests sit in the
// external test package because modelstore imports core.

var distU = framework.MustGenerate(framework.TestConfig(3000))

// bigMarket trains a checker serving under a non-trivial triage band, so
// a round trip that dropped the tier-1 model would show in the verdicts.
func bigMarket(t *testing.T, n int) (*core.Checker, *dataset.Corpus) {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.NumApps = n
	corpus, err := dataset.Generate(distU, dcfg)
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

// distribute exports ck as artifact bytes and imports them the way a peer
// market would: from the bytes alone, universe included.
func distribute(t *testing.T, ck *core.Checker) *core.Checker {
	t.Helper()
	a, err := modelstore.Snapshot(ck)
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty export")
	}
	dec, err := modelstore.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := dec.Instantiate(core.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return imported
}

func TestExportImportRoundTrip(t *testing.T) {
	ck, corpus := bigMarket(t, 500)
	imported := distribute(t, ck)

	if got, want := len(imported.Selection().Keys), len(ck.Selection().Keys); got != want {
		t.Fatalf("imported keys = %d, want %d", got, want)
	}
	if imported.Universe() == ck.Universe() {
		t.Fatal("imported checker shares the exporter's universe; it must rebuild its own")
	}
	if imported.Parts().Triage == nil {
		t.Fatal("imported checker lost the triage model")
	}
	if lo, hi := imported.TriageBand(); lo != 0.05 || hi != 0.95 {
		t.Fatalf("imported band = [%g, %g], want [0.05, 0.95]", lo, hi)
	}
	tier1 := 0
	for i := 0; i < 60; i++ {
		p := corpus.Program(i)
		v1, err := ck.Vet(context.Background(), core.Submission{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		v2, err := imported.Vet(context.Background(), core.Submission{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		// Same model + same app: the whole verdict is identical, tier
		// included.
		if !reflect.DeepEqual(v1, v2) {
			t.Fatalf("app %d: original %+v vs imported %+v", i, v1, v2)
		}
		if v2.Tier == 1 {
			tier1++
		}
	}
	if tier1 == 0 {
		t.Error("imported checker answered nothing at tier 1: the triage tier did not travel")
	}
}

// TestArtifactCarriesTheModelNotTheNode: one generation snapshotted by two
// nodes that keep their verdicts differently is one artifact, and a node
// cold-started from it keeps its verdicts its own way — the capacity it
// asks for, no persist log — not the snapshotting node's.
func TestArtifactCarriesTheModelNotTheNode(t *testing.T) {
	ck, _ := bigMarket(t, 200)
	digestUnder := func(node core.NodeConfig) string {
		t.Helper()
		cfg := ck.Config()
		cfg.NodeConfig = node
		snap, err := core.NewFromParts(ck.Parts(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.ClosePersist()
		a, err := modelstore.Snapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		dig, err := a.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return dig
	}
	persisting := core.NodeConfig{VerdictCache: 8000, VerdictPersistDir: t.TempDir()}
	if a, b := digestUnder(persisting), digestUnder(core.NodeConfig{VerdictCache: -1}); a != b {
		t.Fatalf("one generation under two node configs: digests %.12s and %.12s", a, b)
	}

	cfg := ck.Config()
	cfg.NodeConfig = persisting
	exporter, err := core.NewFromParts(ck.Parts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer exporter.ClosePersist()
	a, err := modelstore.Snapshot(exporter)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{0, 64} {
		node, err := a.Instantiate(core.NodeConfig{VerdictCache: capacity})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := node.CacheStats().Capacity, vcache.New[[]byte](capacity).Stats().Capacity; got != want {
			t.Errorf("Instantiate(VerdictCache %d): capacity %d, want %d", capacity, got, want)
		}
		if node.PersistStats().Enabled {
			t.Errorf("Instantiate(VerdictCache %d) opened the exporter's persist log", capacity)
		}
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := modelstore.Decode([]byte("not a model")); err == nil {
		t.Error("import accepted garbage")
	}
	if _, err := modelstore.Decode(nil); err == nil {
		t.Error("import accepted an empty payload")
	}
}

func TestExportRequiresTraining(t *testing.T) {
	trained, _ := bigMarket(t, 120)
	sel := trained.Selection()
	ex, err := features.NewExtractor(distU, sel.Keys, features.ModeAPI)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.NewFromParts(core.ModelParts{
		Universe: distU, Selection: sel, Extractor: ex,
		Model: ml.NewRandomForest(ml.DefaultForestConfig(1)),
	}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modelstore.Snapshot(ck); err == nil {
		t.Error("export of a checker around an untrained forest succeeded")
	}
}

// TestDistributedModelWorkflow covers §5.4's distribution story end to
// end: a big market trains, a small market imports and runs a review day
// over a corpus generated from its own rebuilt universe.
func TestDistributedModelWorkflow(t *testing.T) {
	big, _ := bigMarket(t, 700)
	small := distribute(t, big)

	cfg := dataset.DefaultConfig()
	cfg.Seed = 31
	cfg.NumApps = 200
	day, err := dataset.Generate(small.Universe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for i := 0; i < day.Len(); i++ {
		v, err := small.Vet(context.Background(), core.Submission{Program: day.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		total++
		if v.Malicious == (day.Labels()[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.93 {
		t.Errorf("imported model accuracy = %.3f", acc)
	}
}
