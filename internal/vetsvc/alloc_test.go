package vetsvc

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/vcache"
	"apichecker/internal/workqueue"
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
// claimed by the one local lane, vetted and settled, and the submitter
// waits on its ticket. With the cache off every round trip does all of
// that. Next to the vet's own five (digest, manifest, blob reader, package
// name, verdict), it costs the record. A lease TTL adds the lane's
// cancellable vet context, which the heartbeat cancels when the lease is
// lost (two), and a journal its enqueue and settle frames (two): 10 with
// both, 6 with neither, the shape of the service the fresh benchmark
// runs. The wake-up of the idle lane, the submitter's wait, the lease and
// the lane's job allocate nothing: waiters come from a free list and the
// lane owns its lease and job.
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
	for _, tc := range []struct {
		name   string
		cfg    Config
		budget float64
	}{
		{"journal+ttl", Config{Workers: 1, QueueSize: 4, QueueDir: t.TempDir(), LeaseTTL: time.Minute}, 10},
		{"memory", Config{Workers: 1, QueueSize: 4}, 6},
	} {
		svc, err := Open(ck, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
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
		if n := testing.AllocsPerRun(400, round); n > tc.budget {
			t.Errorf("%s: a queued cache-off round trip allocates %.0f times, budget %.0f", tc.name, n, tc.budget)
		} else {
			t.Logf("%s: a queued cache-off round trip allocates %.0f times", tc.name, n)
		}
		svc.Close()
	}
}

// TestTicketWaitAllocatesNothing: a Ticket.Wait on a ticket that has not
// settled blocks on a waiter from the free list, not on a channel of its
// own, so once the list is warm it allocates nothing, whether settle wakes
// it or its ctx ends it.
func TestTicketWaitAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	const runs = 1000
	recs := make([]*record, runs+1)
	for i := range recs {
		recs[i] = newRecord(int64(i+1), "p", "")
	}
	// The settler settles each record once its waiter is registered, so
	// every Wait below blocks.
	settle := make(chan *record)
	defer close(settle)
	go func() {
		for r := range settle {
			for {
				r.mu.Lock()
				waiting := r.waiting != (workqueue.WaitList{})
				r.mu.Unlock()
				if waiting {
					break
				}
				runtime.Gosched()
			}
			r.settle(nil, vcache.OutcomeMiss, nil, func() {})
		}
	}()
	ctx := context.Background()
	i := 0
	woken := func() {
		r := recs[i]
		i++
		settle <- r
		if _, err := r.ticket.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(runs, woken); n != 0 {
		t.Errorf("a Wait that settle wakes allocates %.2f times, want 0", n)
	}

	unsettled := newRecord(0, "p", "")
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	given := func() {
		if _, err := unsettled.ticket.Wait(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait on an unsettled ticket under a cancelled ctx = %v", err)
		}
	}
	if n := testing.AllocsPerRun(runs, given); n != 0 {
		t.Errorf("a Wait that its ctx ends allocates %.2f times, want 0", n)
	}
}
