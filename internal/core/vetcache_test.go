package core

import (
	"context"
	"sync"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/dataset"
	"apichecker/internal/emulator"
	"apichecker/internal/vcache"
)

// TestVetCacheDedupes: a byte-identical resubmission is answered from the
// cache — one emulation, bit-identical verdict.
func TestVetCacheDedupes(t *testing.T) {
	ck, corpus := trainedChecker(t, 300)
	p := corpus.Program(0)

	runs0 := emulator.RunCount()
	v1, out1, err := ck.VetOutcome(context.Background(), Submission{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != vcache.OutcomeMiss {
		t.Fatalf("first vet outcome = %v, want miss", out1)
	}
	v2, out2, err := ck.VetOutcome(context.Background(), Submission{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if out2 != vcache.OutcomeHit {
		t.Fatalf("second vet outcome = %v, want hit", out2)
	}
	if *v1 != *v2 {
		t.Fatalf("cached verdict differs:\n  emulated %+v\n  cached   %+v", *v1, *v2)
	}
	if v1 == v2 {
		t.Fatal("cache must hand each caller its own Verdict copy")
	}
	if runs := emulator.RunCount() - runs0; runs != 1 {
		t.Fatalf("emulation runs = %d, want 1", runs)
	}
	st := ck.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestVetCacheDisabled: VerdictCache < 0 turns memoization off entirely —
// every vet emulates, and verdicts still match byte for byte because the
// Monkey seed derives from content, not from the cache.
func TestVetCacheDisabled(t *testing.T) {
	corpus := trainedCorpus(t, 300)
	cfg := DefaultConfig()
	cfg.VerdictCache = -1
	ck, _, err := TrainFromCorpus(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := corpus.Program(0)

	runs0 := emulator.RunCount()
	v1, out1, err := ck.VetOutcome(context.Background(), Submission{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	v2, out2, err := ck.VetOutcome(context.Background(), Submission{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != vcache.OutcomeBypass || out2 != vcache.OutcomeBypass {
		t.Fatalf("outcomes = %v, %v, want bypass, bypass", out1, out2)
	}
	if runs := emulator.RunCount() - runs0; runs != 2 {
		t.Fatalf("emulation runs = %d, want 2 with the cache disabled", runs)
	}
	if *v1 != *v2 {
		t.Fatalf("content-determinism broken: %+v vs %+v", *v1, *v2)
	}
	if st := ck.CacheStats(); st != (vcache.Stats{}) {
		t.Fatalf("disabled cache has stats %+v", st)
	}
}

// trainedCorpus generates the corpus trainedChecker trains on.
func trainedCorpus(t *testing.T, n int) *dataset.Corpus {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumApps = n
	corpus, err := dataset.Generate(testU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestCachedEqualsUncached is the bit-identity contract across cache
// configurations: the same submission vetted by a cache-enabled checker
// (twice — miss then hit) and by a cache-disabled twin produces the same
// Verdict value in all three cases.
func TestCachedEqualsUncached(t *testing.T) {
	corpus := trainedCorpus(t, 300)
	cached, _, err := TrainFromCorpus(corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.VerdictCache = -1
	uncached, _, err := TrainFromCorpus(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := corpus.Program(i)
		miss, err := cached.Vet(context.Background(), Submission{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		hit, err := cached.Vet(context.Background(), Submission{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := uncached.Vet(context.Background(), Submission{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		if *miss != *hit || *miss != *plain {
			t.Fatalf("app %d: miss %+v / hit %+v / uncached %+v differ", i, *miss, *hit, *plain)
		}
	}
}

// TestRetrainInvalidatesCache: verdicts memoized under the previous model
// generation are never served after Retrain.
func TestRetrainInvalidatesCache(t *testing.T) {
	ck, corpus := trainedChecker(t, 300)
	p := corpus.Program(1)

	if _, out, err := ck.VetOutcome(context.Background(), Submission{Program: p}); err != nil || out != vcache.OutcomeMiss {
		t.Fatalf("prime vet: out=%v err=%v", out, err)
	}
	if _, out, err := ck.VetOutcome(context.Background(), Submission{Program: p}); err != nil || out != vcache.OutcomeHit {
		t.Fatalf("warm vet: out=%v err=%v", out, err)
	}
	if _, err := ck.Retrain(corpus); err != nil {
		t.Fatal(err)
	}
	st := ck.CacheStats()
	if st.Epoch != 1 || st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("post-retrain cache stats = %+v, want epoch 1 and no entries", st)
	}

	runs0 := emulator.RunCount()
	_, out, err := ck.VetOutcome(context.Background(), Submission{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if out != vcache.OutcomeMiss {
		t.Fatalf("post-retrain vet outcome = %v, want miss (stale entry served!)", out)
	}
	if runs := emulator.RunCount() - runs0; runs != 1 {
		t.Fatalf("post-retrain emulation runs = %d, want 1", runs)
	}
}

// TestVetRunFeedsCache: VetRun rides Vet, so its miss stores the verdict
// and a later Vet of the same bytes is a hit; a second VetRun is answered
// from the cache too, with no emulation result.
func TestVetRunFeedsCache(t *testing.T) {
	ck, corpus := trainedChecker(t, 300)
	data, err := apk.Build(corpus.Program(2), ck.Universe())
	if err != nil {
		t.Fatal(err)
	}

	runs0 := emulator.RunCount()
	v1, run1, err := ck.VetRun(context.Background(), Submission{Raw: data})
	if err != nil {
		t.Fatal(err)
	}
	if run1 == nil {
		t.Fatal("VetRun's miss returned no emulation result")
	}
	v2, out, err := ck.VetOutcome(context.Background(), Submission{Raw: data})
	if err != nil {
		t.Fatal(err)
	}
	if out != vcache.OutcomeHit {
		t.Fatalf("vet after VetRun outcome = %v, want hit", out)
	}
	if *v1 != *v2 {
		t.Fatalf("stored verdict differs: %+v vs %+v", *v1, *v2)
	}
	v3, run3, err := ck.VetRun(context.Background(), Submission{Raw: data})
	if err != nil {
		t.Fatal(err)
	}
	if run3 != nil {
		t.Fatal("VetRun answered from the cache returned an emulation result")
	}
	if *v3 != *v1 {
		t.Fatalf("second VetRun verdict differs: %+v vs %+v", *v3, *v1)
	}
	if runs := emulator.RunCount() - runs0; runs != 1 {
		t.Fatalf("emulation runs = %d, want 1", runs)
	}
}

// TestVetRunCacheOffEmulatesEveryCall is cmd/apichecker's contract: on a
// checker with the cache off, VetRun of one archive twice emulates twice,
// returning a Result each time, and the two verdicts are bit-identical.
func TestVetRunCacheOffEmulatesEveryCall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VerdictCache = -1
	ck, corpus := trainedCheckerCfg(t, 300, cfg)
	data, err := apk.Build(corpus.Program(2), ck.Universe())
	if err != nil {
		t.Fatal(err)
	}

	runs0 := emulator.RunCount()
	var verdicts [2]*Verdict
	for i := range verdicts {
		v, run, err := ck.VetRun(context.Background(), Submission{Raw: data})
		if err != nil {
			t.Fatal(err)
		}
		if run == nil {
			t.Fatalf("VetRun %d returned no emulation result", i+1)
		}
		verdicts[i] = v
	}
	if *verdicts[0] != *verdicts[1] {
		t.Fatalf("verdicts differ: %+v vs %+v", *verdicts[0], *verdicts[1])
	}
	if runs := emulator.RunCount() - runs0; runs != 2 {
		t.Fatalf("emulation runs = %d, want 2", runs)
	}
}

// TestDigestAgreesAcrossPayloadForms: one app's Raw and Program
// submissions share a digest exactly when their canonical bytes agree — a
// raw archive keys on its bytes, a program on its behaviour encoding.
func TestDigestAgreesAcrossPayloadForms(t *testing.T) {
	ck, corpus := trainedChecker(t, 300)
	p := corpus.Program(3)
	data, err := apk.Build(p, ck.Universe())
	if err != nil {
		t.Fatal(err)
	}

	raw := Submission{Raw: data}
	again := Submission{Raw: data}
	if raw.ContentDigest() == "" || raw.ContentDigest() != apk.Digest(data) {
		t.Fatalf("raw digest %q, want the archive's %q", raw.ContentDigest(), apk.Digest(data))
	}
	prog := Submission{Program: p}
	if prog.ContentDigest() == "" {
		t.Fatal("program submission has no digest")
	}
	if prog.ContentDigest() == raw.ContentDigest() {
		t.Fatal("program digest (behaviour encoding) should differ from archive digest")
	}

	// A second submission of the same archive is a cache hit.
	runs0 := emulator.RunCount()
	v1, _, err := ck.VetOutcome(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	v2, out, err := ck.VetOutcome(context.Background(), again)
	if err != nil {
		t.Fatal(err)
	}
	if out != vcache.OutcomeHit {
		t.Fatalf("resubmitted archive outcome = %v, want hit", out)
	}
	if *v1 != *v2 {
		t.Fatalf("verdicts differ across the miss and the hit: %+v vs %+v", *v1, *v2)
	}
	if runs := emulator.RunCount() - runs0; runs != 1 {
		t.Fatalf("emulation runs = %d, want 1", runs)
	}

	// The verdict names the submission by that digest — the emulated answer
	// and the cached one (which takes it from the key it looked up), for
	// archives and for a bare program alike.
	if v1.Digest != raw.ContentDigest() || v2.Digest != raw.ContentDigest() {
		t.Fatalf("archive verdicts carry digests %q (miss) and %q (hit), want %q", v1.Digest, v2.Digest, raw.ContentDigest())
	}
	for _, wantOut := range []vcache.Outcome{vcache.OutcomeMiss, vcache.OutcomeHit} {
		v, out, err := ck.VetOutcome(context.Background(), prog)
		if err != nil || out != wantOut || v.Digest != prog.ContentDigest() {
			t.Fatalf("program verdict: digest %q, outcome %v, %v; want %q on a %v", v.Digest, out, err, prog.ContentDigest(), wantOut)
		}
	}
}

// TestConcurrentDuplicateVets: N goroutines vetting the same program pay
// for exactly one emulation between them (singleflight), all receiving
// the same verdict.
func TestConcurrentDuplicateVets(t *testing.T) {
	ck, corpus := trainedChecker(t, 300)
	p := corpus.Program(4)
	const n = 16

	runs0 := emulator.RunCount()
	verdicts := make([]*Verdict, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := ck.Vet(context.Background(), Submission{Program: p})
			if err != nil {
				t.Error(err)
				return
			}
			verdicts[i] = v
		}(i)
	}
	wg.Wait()
	if runs := emulator.RunCount() - runs0; runs != 1 {
		t.Fatalf("emulation runs = %d, want 1 for %d concurrent duplicates", runs, n)
	}
	for i := 1; i < n; i++ {
		if *verdicts[i] != *verdicts[0] {
			t.Fatalf("verdict %d differs: %+v vs %+v", i, *verdicts[i], *verdicts[0])
		}
	}
	st := ck.CacheStats()
	if st.Misses != 1 || st.Hits+st.Coalesced != n-1 {
		t.Fatalf("cache stats = %+v, want 1 miss and %d hits+coalesced", st, n-1)
	}
}
