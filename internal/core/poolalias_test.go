package core

import (
	"context"
	"sync"
	"testing"

	"apichecker/internal/pipeline"
)

// TestPoolReuseNoAliasing: with release-time poisoning on, recycled
// VetContext storage is scribbled over the moment a vet returns — so any
// verdict or cached entry still aliasing pooled memory shows up as
// poisoned data (or a -race report) instead of passing silently. Duplicate
// submissions vetted concurrently exercise all three cache paths (miss,
// coalesced, hit), and every verdict must stay bit-identical to the
// pool-free legacy baseline.
func TestPoolReuseNoAliasing(t *testing.T) {
	pipeline.PoisonReleased.Store(true)
	t.Cleanup(func() { pipeline.PoisonReleased.Store(false) })

	ck, corpus := trainedChecker(t, 300)

	const nProgs, dupes = 4, 8
	baseline := make([]*Verdict, nProgs)
	for i := range baseline {
		baseline[i] = legacyVet(t, ck, Submission{Program: corpus.Program(i)})
	}

	got := make([][]*Verdict, nProgs)
	var wg sync.WaitGroup
	for i := 0; i < nProgs; i++ {
		got[i] = make([]*Verdict, dupes)
		for d := 0; d < dupes; d++ {
			wg.Add(1)
			go func(i, d int) {
				defer wg.Done()
				v, _, err := ck.VetOutcome(context.Background(), Submission{Program: corpus.Program(i)})
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
	for i := 0; i < nProgs; i++ {
		for d := 0; d < dupes; d++ {
			if *got[i][d] != *baseline[i] {
				t.Fatalf("prog %d dupe %d: verdict diverged from pool-free baseline:\n  legacy %+v\n  pooled %+v",
					i, d, *baseline[i], *got[i][d])
			}
		}
	}

	// A second pass over the same digests lands every vet on the decode-
	// from-cache hit path, with the previous pass's poisoned contexts now
	// circulating in the pool.
	for i := 0; i < nProgs; i++ {
		v, err := ck.Vet(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		if *v != *baseline[i] {
			t.Fatalf("prog %d: hit-path verdict diverged after pool recycling:\n  legacy %+v\n  pooled %+v",
				i, *baseline[i], *v)
		}
	}
}
