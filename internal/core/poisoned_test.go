package core_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/cluster"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/vetsvc"
)

// TestPoisonedArchiveDeadLettersOnClusterNode: an archive that panics
// inside the pipeline — under the verdict cache's singleflight, where
// decode, emulate and infer run — on every attempt costs its own attempts
// and nothing else, with the cache on. The first panic must not leave the
// digest's flight registered: the re-issued attempt lands on the same node
// (affinity) and would wait on it for ever, heartbeating its lease. Both
// attempts are nacked with the panic text, the ticket dead-letters, and
// the node goes on serving. It sits here, not in internal/cluster, because
// only core's tests can reach into the pipeline (PoisonRaw).
func TestPoisonedArchiveDeadLettersOnClusterNode(t *testing.T) {
	dcfg := dataset.DefaultConfig()
	dcfg.NumApps = 300
	corpus, err := dataset.Generate(distU, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := core.TrainFromCorpus(corpus, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const total, attempts = 6, 2
	subs := make([]core.Submission, total)
	for i := range subs {
		if subs[i].Raw, err = apk.Build(corpus.Program(i), distU); err != nil {
			t.Fatal(err)
		}
	}

	svc, err := vetsvc.Open(ck, vetsvc.Config{
		QueueSize: total, LeaseTTL: time.Minute, MaxAttempts: attempts, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mux := http.NewServeMux()
	cluster.NewCoordinator(svc, cluster.CoordinatorConfig{PollSlice: 10 * time.Millisecond}).Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	w, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: ts.URL, Node: "n", Lanes: 2, PollWait: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	submit := func(i int) *vetsvc.Ticket {
		tk, err := svc.Submit(ctx, subs[i])
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	// One clean vet cold-starts the node; its checker is then idle.
	if _, err := submit(0).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if c := w.Checker().Config().VerdictCache; c < 0 {
		t.Fatalf("the node's verdict cache is off (%d): this test is about the cache's singleflight", c)
	}
	core.PoisonRaw(w.Checker(), subs[1].Raw)

	tickets := make([]*vetsvc.Ticket, total)
	for i := 1; i < total; i++ {
		tickets[i] = submit(i)
	}
	for i := 1; i < total; i++ {
		_, err := tickets[i].Wait(ctx)
		switch {
		case i == 1 && errors.Is(err, context.DeadlineExceeded):
			t.Fatal("the poisoned submission never settled: its second attempt is waiting on the first one's flight")
		case i == 1 && (!errors.Is(err, vetsvc.ErrPoisoned) || !strings.Contains(err.Error(), "panicked: poisoned archive")):
			t.Errorf("poisoned submission: error %v, want a dead-letter naming the panic", err)
		case i != 1 && err != nil:
			t.Errorf("submission %d: %v", i, err)
		}
	}
	if s := w.Stats(); s.Panics != attempts || s.Verdicts != total-1 {
		t.Errorf("node stats = %+v, want %d panics and %d verdicts", s, attempts, total-1)
	}
	select {
	case <-w.Done():
		t.Error("the node's lanes exited")
	default:
	}
}
