package core

import (
	"context"
	"sync"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/pipeline"
)

// TestPoolReuseNoAliasing: with release-time poisoning on, recycled
// VetContext storage — the vector and the miss scratch — is scribbled over
// the moment a vet returns, so any verdict or cached entry still aliasing
// pooled memory shows up as poisoned data (or a -race report) instead of
// passing silently, and so does a vet that reads decode or run storage it
// did not refill. Duplicate submissions vetted concurrently exercise all
// three cache paths (miss, coalesced, hit), and every verdict must stay
// bit-identical to the pool-free legacy baseline. The program arm reaches
// the emulator's scratch; the raw-archive arm also reaches the archive
// handle and the manifest and program decoders.
func TestPoolReuseNoAliasing(t *testing.T) {
	pipeline.PoisonReleased.Store(true)
	t.Cleanup(func() { pipeline.PoisonReleased.Store(false) })

	ck, corpus := trainedChecker(t, 300)

	const nProgs, nRaws = 4, 8
	programs := make([]Submission, nProgs)
	for i := range programs {
		programs[i] = Submission{Program: corpus.Program(i)}
	}
	raws := make([]Submission, nRaws)
	for i := range raws {
		raw, err := apk.Build(corpus.Program(nProgs+i), testU)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = Submission{Raw: raw}
	}
	t.Run("program", func(t *testing.T) { checkPoolReuse(t, ck, programs) })
	t.Run("raw", func(t *testing.T) { checkPoolReuse(t, ck, raws) })
}

// checkPoolReuse vets each submission dupes times concurrently, then once
// more from the cache, against its legacy baseline.
func checkPoolReuse(t *testing.T, ck *Checker, subs []Submission) {
	const dupes = 8
	baseline := make([]*Verdict, len(subs))
	for i, sub := range subs {
		baseline[i] = legacyVet(t, ck, sub)
	}

	got := make([][]*Verdict, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		got[i] = make([]*Verdict, dupes)
		for d := 0; d < dupes; d++ {
			wg.Add(1)
			go func(i, d int) {
				defer wg.Done()
				v, _, err := ck.VetOutcome(context.Background(), subs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i][d] = v
			}(i, d)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range subs {
		for d := 0; d < dupes; d++ {
			if *got[i][d] != *baseline[i] {
				t.Fatalf("submission %d dupe %d: verdict diverged from pool-free baseline:\n  legacy %+v\n  pooled %+v",
					i, d, *baseline[i], *got[i][d])
			}
		}
	}

	// A second pass over the same digests lands every vet on the decode-
	// from-cache hit path, with the previous pass's poisoned contexts now
	// circulating in the pool.
	for i, sub := range subs {
		v, err := ck.Vet(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		if *v != *baseline[i] {
			t.Fatalf("submission %d: hit-path verdict diverged after pool recycling:\n  legacy %+v\n  pooled %+v",
				i, *baseline[i], *v)
		}
	}
}
