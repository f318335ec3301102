package vetsvc

import (
	"context"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/core"
)

// TestAdmissionHitAllocBudget: a submission whose verdict is cached is
// answered on the submitting goroutine, and what that allocates is what the
// caller keeps: the record its ticket views, and the verdict and its
// package name decoded from the cache entry. A raw archive adds the hex
// digest of its content; a program's digest is computed once and kept on
// the program.
func TestAdmissionHitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	ck, corpus := trainedChecker(t)
	raw, err := apk.Build(corpus.Program(0), testU)
	if err != nil {
		t.Fatal(err)
	}
	prog := corpus.Program(1)
	ctx := context.Background()
	for _, sub := range []core.Submission{{Raw: raw}, {Program: prog}} {
		if _, err := ck.Vet(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	svc := New(ck, Config{Workers: 1, QueueSize: 4})
	t.Cleanup(svc.Close)

	for _, tc := range []struct {
		name   string
		budget float64
		submit func() (*Ticket, error)
	}{
		{"Submit/raw", 4, func() (*Ticket, error) { return svc.Submit(ctx, core.Submission{Raw: raw}) }},
		{"SubmitWait/program", 3, func() (*Ticket, error) { return svc.SubmitWait(ctx, core.Submission{Program: prog}) }},
	} {
		hits := svc.Metrics().CacheHits
		n := testing.AllocsPerRun(400, func() {
			tk, err := tc.submit()
			if err != nil {
				t.Fatal(err)
			}
			if st := tk.State(); st != "done" {
				t.Fatalf("state %q when the submit returned, want done", st)
			}
		})
		if got := svc.Metrics().CacheHits - hits; got != 401 {
			t.Fatalf("%s: %d of 401 submissions were admission hits", tc.name, got)
		}
		if n > tc.budget {
			t.Errorf("%s: a warm admission hit allocates %.0f times, budget %.0f", tc.name, n, tc.budget)
		} else {
			t.Logf("%s: a warm admission hit allocates %.0f times", tc.name, n)
		}
	}
}

// TestQueuedAllocBudget: a raw archive the cache cannot answer is queued,
// journaled, claimed by the one local lane, vetted and settled, and the
// submitter waits on its ticket. With the cache off every round trip does
// all of that. Next to the vet's own five (digest, manifest, blob reader,
// package name, verdict), it costs the record and the done channel its
// waiter blocks on, the wake-up of the idle lane, the lease, the lane's job
// and its cancellable context (two), and the journal's enqueue and settle
// frames: 14, or 12 with the journal off.
func TestQueuedAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops a quarter of what is put in a sync.Pool, so pooled contexts are rebuilt at random")
	}
	cfg := core.DefaultConfig()
	cfg.VerdictCache = -1
	ck, corpus := trainedCheckerCfg(t, cfg)
	raws := make([][]byte, 8)
	for i := range raws {
		var err error
		if raws[i], err = apk.Build(corpus.Program(i), testU); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := Open(ck, Config{Workers: 1, QueueSize: 4, QueueDir: t.TempDir(), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ctx := context.Background()
	i := 0
	round := func() {
		tk, err := svc.Submit(ctx, core.Submission{Raw: raws[i%len(raws)]})
		if err != nil {
			t.Fatal(err)
		}
		i++
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * len(raws) {
		round()
	}
	const budget = 14
	if n := testing.AllocsPerRun(400, round); n > budget {
		t.Errorf("a queued cache-off round trip allocates %.0f times, budget %d", n, budget)
	} else {
		t.Logf("a queued cache-off round trip allocates %.0f times", n)
	}
}
