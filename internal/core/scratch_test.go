package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/emulator"
	"apichecker/internal/hook"
	"apichecker/internal/pipeline"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// cacheOffArchives trains a checker with the verdict cache off, so every
// vet is a miss, and builds n raw archives from its corpus.
func cacheOffArchives(t *testing.T, n int) (*Checker, [][]byte) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.VerdictCache = -1
	ck, corpus := trainedCheckerCfg(t, 300, cfg)
	raws := make([][]byte, n)
	for i := range raws {
		var err error
		if raws[i], err = apk.Build(corpus.Program(i), testU); err != nil {
			t.Fatal(err)
		}
	}
	return ck, raws
}

// TestVetRunResultIsOwned: the run VetRun returns is the caller's. Vets
// that follow reuse the scratch the run was recorded into (poisoned on
// release, too), and the result must not see any of it. Vetting the same
// archive again, through that reused scratch, records the same run.
func TestVetRunResultIsOwned(t *testing.T) {
	pipeline.PoisonReleased.Store(true)
	t.Cleanup(func() { pipeline.PoisonReleased.Store(false) })
	ck, raws := cacheOffArchives(t, 8)
	ctx := context.Background()

	_, run, err := ck.VetRun(ctx, Submission{Raw: raws[0]})
	if err != nil {
		t.Fatal(err)
	}
	if run == nil {
		t.Fatal("VetRun on a cache-off checker returned no run")
	}
	// The snapshot copies with append, not Clone, so a Clone that shared
	// storage with the scratch could not hide behind itself.
	type snapshot struct {
		Result  emulator.Result
		Invs    []hook.Invocation
		Intents []hook.IntentSend
		Acts    []string
		Sent    []int32
	}
	take := func(r *emulator.Result) snapshot {
		s := snapshot{
			Result:  *r,
			Invs:    slices.Clone(r.Log.Invocations()),
			Intents: slices.Clone(r.Log.Intents()),
			Acts:    slices.Clone(r.Log.ReachedActivities),
		}
		s.Result.Log = nil
		for _, id := range r.Log.SentIntents() {
			s.Sent = append(s.Sent, int32(id))
		}
		return s
	}
	want := take(run)
	if len(want.Invs) == 0 || len(want.Acts) == 0 {
		t.Fatalf("the kept run recorded nothing to check: %+v", want)
	}
	for i := 0; i < 50; i++ {
		if _, err := ck.Vet(ctx, Submission{Raw: raws[1+i%(len(raws)-1)]}); err != nil {
			t.Fatal(err)
		}
	}
	if got := take(run); !reflect.DeepEqual(got, want) {
		t.Errorf("VetRun's result changed under later vets:\n  then %+v\n  now  %+v", want, got)
	}
	_, again, err := ck.VetRun(ctx, Submission{Raw: raws[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got := take(again); !reflect.DeepEqual(got, want) {
		t.Errorf("the same archive ran differently on reused scratch:\n  first %+v\n  again %+v", want, got)
	}
}

// TestMissAllocBudget: a warm cache-off raw-archive vet decodes and
// emulates into its pooled context's scratch, so what it allocates is what
// outlives the vet — the digest, the verdict and its package name — plus
// the copies of the manifest and the behaviour blob their strings are cut
// from. The budget is the measured 5.
func TestMissAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops a quarter of what is put in a sync.Pool, so pooled contexts are rebuilt at random")
	}
	const budget = 5
	ck, raws := cacheOffArchives(t, 16)
	ctx := context.Background()
	for _, raw := range raws {
		if _, err := ck.Vet(ctx, Submission{Raw: raw}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		if _, err := ck.Vet(ctx, Submission{Raw: raws[i%len(raws)]}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > budget {
		t.Errorf("a warm cache-off miss allocates %.0f times, budget %d", allocs, budget)
	} else {
		t.Logf("a warm cache-off miss allocates %.0f times", allocs)
	}
}

// TestTier1AllocBudget: a raw archive the static triage model scores
// outside the band [0.05, 0.95] is answered from its manifest alone, the
// behaviour program never decoded and nothing emulated. With the cache off,
// what that allocates is the digest, the copy of the manifest its strings
// are cut from, the package name and the verdict: the measured 4.
func TestTier1AllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops a quarter of what is put in a sync.Pool, so pooled contexts are rebuilt at random")
	}
	const budget = 4
	cfg := DefaultConfig()
	cfg.VerdictCache = -1
	cfg.TriageLo, cfg.TriageHi = testBandLo, testBandHi
	ck, corpus := trainedCheckerCfg(t, 300, cfg)
	ctx := context.Background()
	var raws [][]byte
	for i := 0; i < corpus.Len() && len(raws) < 16; i++ {
		raw, err := apk.Build(corpus.Program(i), testU)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ck.Vet(ctx, Submission{Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier == 1 {
			raws = append(raws, raw)
		}
	}
	if len(raws) < 16 {
		t.Fatalf("%d of %d apps answered at tier 1, want 16", len(raws), corpus.Len())
	}
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		v, err := ck.Vet(ctx, Submission{Raw: raws[i%len(raws)]})
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier != 1 {
			t.Fatalf("archive %d answered at tier %d", i%len(raws), v.Tier)
		}
		i++
	})
	if allocs > budget {
		t.Errorf("a warm cache-off tier-1 verdict allocates %.0f times, budget %d", allocs, budget)
	} else {
		t.Logf("a warm cache-off tier-1 verdict allocates %.0f times", allocs)
	}
}

// TestCachedMissAllocBudget is TestMissAllocBudget with the verdict cache
// and its persist tier on, as a serving node runs. Sixteen archives cycle
// through an 8-entry cache, so every vet misses, stores its entry over the
// least recently used one and appends it to the log. On top of the
// cache-off miss that costs only the entry it stores: the cache's slots
// and flights and the log's frame are reused. The parent of this change
// allocated 11 times a vet here (a flight and its channel, an entry box
// and its list element, a frame); the budget is the measured 6.
func TestCachedMissAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops a quarter of what is put in a sync.Pool, so pooled contexts are rebuilt at random")
	}
	const budget = 6
	cfg := DefaultConfig()
	cfg.VerdictCache = 8
	cfg.VerdictPersistDir = t.TempDir()
	ck, corpus := trainedCheckerCfg(t, 300, cfg)
	t.Cleanup(func() { ck.ClosePersist() })
	raws := make([][]byte, 16)
	for i := range raws {
		var err error
		if raws[i], err = apk.Build(corpus.Program(i), testU); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	vet := func(raw []byte) {
		if _, err := ck.Vet(ctx, Submission{Raw: raw}); err != nil {
			t.Fatal(err)
		}
	}
	for _, raw := range raws {
		vet(raw)
	}
	before := ck.CacheStats()
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		vet(raws[i%len(raws)])
		i++
	})
	after := ck.CacheStats()
	if hits := after.Hits - before.Hits; hits != 0 {
		t.Fatalf("%d of the measured vets hit the cache; every one must miss", hits)
	}
	if appends := ck.PersistStats().Appends; appends < uint64(len(raws)+400) {
		t.Fatalf("the persist tier appended %d entries, want one a vet", appends)
	}
	if allocs > budget {
		t.Errorf("a warm cached miss allocates %.0f times, budget %d", allocs, budget)
	} else {
		t.Logf("a warm cached miss allocates %.0f times", allocs)
	}
}
