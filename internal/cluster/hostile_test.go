package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"apichecker/internal/cluster"
	"apichecker/internal/core"
	"apichecker/internal/vetsvc"
)

// TestWrongModelBytesNeverReachDecode: a node hashes what it fetched
// before it decodes it. A coordinator front that answers the model route
// with bytes that are not the advertised artifact gets every claim nacked
// with the integrity error — not with the decoder's complaint about the
// bytes, which would mean they had reached it — and the submission is
// dead-lettered with that cause.
func TestWrongModelBytesNeverReachDecode(t *testing.T) {
	base, corpus := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: 4, LeaseTTL: time.Minute, MaxAttempts: 2, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})

	real := http.NewServeMux()
	st.coord.Mount(real)
	front := http.NewServeMux()
	front.HandleFunc(cluster.PathModel, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("whatever these bytes are, they are not the advertised artifact"))
	})
	front.Handle("/", real)
	ts := httptest.NewServer(front)
	defer ts.Close()

	w, err := cluster.StartWorker(cluster.WorkerConfig{Coordinator: ts.URL, Node: "fooled", Lanes: 1, PollWait: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st.workers = append(st.workers, w)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tk, err := svc.Submit(ctx, rawSubs(t, corpus, 1, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = tk.Wait(ctx)
	if !errors.Is(err, vetsvc.ErrPoisoned) {
		t.Fatalf("ticket error = %v, want a dead-letter", err)
	}
	if !strings.Contains(err.Error(), "model integrity") {
		t.Errorf("dead-letter cause %q does not name the integrity check", err)
	}
	if strings.Contains(err.Error(), "not a model artifact") {
		t.Errorf("dead-letter cause %q comes from modelstore.Decode: the bytes reached the decoder", err)
	}
	if s := w.Stats(); s.Verdicts != 0 || s.Nacks != 2 || s.ModelPulls != 2 {
		t.Errorf("node stats = %+v, want 0 verdicts, 2 nacks, 2 pulls", s)
	}
	if w.Checker() != nil {
		t.Error("the node assembled a checker from bytes that failed the integrity check")
	}
}

// TestPanickingVetIsNackedNotFatal: one submission that panics on every
// attempt costs its own attempts and nothing else. The panic is recovered
// on the lane, the lease nacked with the panic text (so the submission is
// re-issued, then dead-lettered), the node counts it and keeps claiming,
// and every other submission settles with its serial verdict. The panic
// here is raised in OnVet, outside the verdict cache's singleflight; the
// one raised inside the pipeline, where a poisoned archive would raise it,
// is core's TestPoisonedArchiveDeadLettersOnClusterNode (this package's
// tests cannot reach into a checker's stages).
func TestPanickingVetIsNackedNotFatal(t *testing.T) {
	base, corpus := trainedArtifact(t)
	const total, attempts = 8, 2
	subs := rawSubs(t, corpus, total, total)
	serial := serialVerdicts(t, base, configOf(base), subs)
	svc, err := vetsvc.Open(instantiate(t, base, configOf(base)), vetsvc.Config{
		QueueSize: total, LeaseTTL: time.Minute, MaxAttempts: attempts, DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var poisoned atomic.Int64
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 1, cluster.WorkerConfig{
		OnVet: func(seq int64, _ *core.Verdict, _ error) {
			if seq == poisoned.Load() {
				panic("poisoned archive")
			}
		},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tickets := make([]*vetsvc.Ticket, total)
	for i := range subs {
		if tickets[i], err = svc.Submit(ctx, subs[i]); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			poisoned.Store(tickets[i].Seq())
		}
	}
	for i, tk := range tickets {
		v, err := tk.Wait(ctx)
		if i == 2 {
			if !errors.Is(err, vetsvc.ErrPoisoned) || !strings.Contains(err.Error(), "panicked: poisoned archive") {
				t.Errorf("poisoned submission: error %v, want a dead-letter naming the panic", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if *v != *serial[i] {
			t.Errorf("submission %d: cluster %+v vs serial %+v", i, *v, *serial[i])
		}
	}
	w := st.workers[0]
	if s := w.Stats(); s.Panics != attempts || s.Verdicts != total-1 {
		t.Errorf("node stats = %+v, want %d panics and %d verdicts", s, attempts, total-1)
	}
	select {
	case <-w.Done():
		t.Error("the node's lanes exited")
	default:
	}
}
