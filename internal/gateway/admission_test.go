package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/obs"
	"apichecker/internal/vetsvc"
)

// TestAdmitErrorCode pins the status each refused admission answers with:
// the client's fault is 400, the server's 500.
func TestAdmitErrorCode(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"queue full", fmt.Errorf("vet (raw archive): %w", vetsvc.ErrQueueFull), http.StatusTooManyRequests},
		{"draining", vetsvc.ErrDraining, http.StatusServiceUnavailable},
		{"closed", vetsvc.ErrClosed, http.StatusServiceUnavailable},
		{"bad submission", fmt.Errorf("core: %w: no payload", core.ErrBadSubmission), http.StatusBadRequest},
		{"journal write", fmt.Errorf("vet (raw archive): %w", errors.New("workqueue: journal: no space left on device")), http.StatusInternalServerError},
	} {
		if got := admitErrorCode(c.err); got != c.want {
			t.Errorf("%s: %d, want %d", c.name, got, c.want)
		}
	}
}

// indexSizes reads the sizes of the gateway's two record indexes.
func indexSizes(gw *Server) (byID, bySeq int) {
	gw.regMu.RLock()
	defer gw.regMu.RUnlock()
	return len(gw.byID), len(gw.bySeq)
}

// TestAdmissionHitTraceAndOutcome: POSTing an archive whose verdict is
// cached answers 200 at once with outcome hit, queues nothing, and its
// trace replays the admit and cache.lookup spans, then ends.
func TestAdmissionHitTraceAndOutcome(t *testing.T) {
	ck, corpus := trainedChecker(t)
	data := buildAPK(t, corpus, 0)
	if _, err := ck.Vet(context.Background(), core.Submission{Raw: data}); err != nil {
		t.Fatal(err)
	}
	fx := newFixtureWith(t, ck, vetsvc.Config{Workers: 2, QueueSize: 8}, Config{})

	st, resp := postAPK(t, fx.ts.URL, "", data)
	if resp.StatusCode != http.StatusOK || st.Status != "done" || st.Outcome != "hit" || st.Verdict == nil {
		t.Fatalf("cached archive: status %d, %+v; want 200, done, outcome hit", resp.StatusCode, st)
	}
	if n := fx.svc.QueueStats().Enqueued; n != 0 {
		t.Errorf("an admission hit enqueued %d items", n)
	}
	stages, done, err := readTrace(fx.ts.URL, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !done || len(stages) != 2 || !stages["admit"] || !stages["cache.lookup"] {
		t.Errorf("trace: stages %v, done %v; want admit and cache.lookup, then done", stages, done)
	}
}

// TestSinkMayCallBackIntoGateway: sinks on the service's and the
// checker's collectors GET the submission synchronously on every event,
// over hits and misses. The gateway holds no lock of its own while the
// service or the pipeline emits, so this finishes.
func TestSinkMayCallBackIntoGateway(t *testing.T) {
	ck, corpus := trainedChecker(t)
	const n = 16
	archives := make([][]byte, n)
	for i := range archives {
		archives[i] = buildAPK(t, corpus, i)
		if i%2 == 0 {
			if _, err := ck.Vet(context.Background(), core.Submission{Raw: archives[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc := vetsvc.New(ck, vetsvc.Config{Workers: 2, QueueSize: 32})
	gw := New(svc, Config{})
	poll := obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind != obs.KindService && ev.Kind != obs.KindSpan {
			return
		}
		gw.regMu.RLock()
		rec := gw.bySeq[ev.Trace]
		gw.regMu.RUnlock()
		if rec != nil {
			serve(gw, http.MethodGet, "/v1/submissions/"+rec.id, nil)
		}
	})
	svc.Obs().AddSink(poll)
	ck.Obs().AddSink(poll)

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i, data := range archives {
			if w := serve(gw, http.MethodPost, "/v1/submissions?wait=30s", data); w.Code != http.StatusOK {
				t.Errorf("archive %d: status %d: %s", i, w.Code, w.Body)
			}
		}
	}()
	select {
	case <-finished:
		svc.Close()
	case <-time.After(60 * time.Second):
		t.Fatal("a sink that polls the gateway deadlocked it") // the service is left stuck, not closed
	}
}

// TestFailedAdmitLeavesNoIndex: a POST the service refuses — queue full,
// or the service draining under an open gateway — leaves neither index
// larger, whether its verdict was cached or not.
func TestFailedAdmitLeavesNoIndex(t *testing.T) {
	ck, corpus := trainedChecker(t)
	cached := [][]byte{buildAPK(t, corpus, 8), buildAPK(t, corpus, 9)}
	for _, data := range cached {
		if _, err := ck.Vet(context.Background(), core.Submission{Raw: data}); err != nil {
			t.Fatal(err)
		}
	}
	post := func(gw *Server, data []byte, want int) {
		t.Helper()
		ids, seqs := indexSizes(gw)
		if w := serve(gw, http.MethodPost, "/v1/submissions", data); w.Code != want {
			t.Fatalf("status %d, want %d: %s", w.Code, want, w.Body)
		}
		if want >= 400 {
			if i, s := indexSizes(gw); i != ids || s != seqs {
				t.Errorf("refused with %d: indexes by id/seq %d/%d -> %d/%d", want, ids, seqs, i, s)
			}
		}
	}

	// Queue full: the only lane stalls on the head, the next fills the queue.
	svc, gw, release := stalledGateway(t, ck, buildAPK(t, corpus, 0), 1)
	post(gw, buildAPK(t, corpus, 1), http.StatusAccepted)
	post(gw, buildAPK(t, corpus, 2), http.StatusTooManyRequests)
	post(gw, cached[0], http.StatusOK) // a hit takes no slot
	release()
	svc.Close()

	// Draining under an open gateway, with queue room to spare.
	svc, gw, release = stalledGateway(t, ck, buildAPK(t, corpus, 4), 4)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		svc.Drain(context.Background())
	}()
	for !svc.Draining() {
		time.Sleep(time.Millisecond)
	}
	post(gw, buildAPK(t, corpus, 3), http.StatusServiceUnavailable)
	post(gw, cached[1], http.StatusServiceUnavailable)
	release()
	<-drained
}

// stalledGateway serves a one-lane service whose lane is stalled on head,
// an archive not yet vetted, until release is called.
func stalledGateway(t *testing.T, ck *core.Checker, head []byte, queueSize int) (*vetsvc.Service, *Server, func()) {
	t.Helper()
	var (
		once, gateOnce sync.Once
		stalled        = make(chan struct{})
		gate           = make(chan struct{})
	)
	release := func() { gateOnce.Do(func() { close(gate) }) }
	svc := vetsvc.New(ck, vetsvc.Config{
		Workers:   1,
		QueueSize: queueSize,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name != vetsvc.EventStarted {
			return
		}
		first := false
		once.Do(func() { first = true })
		if first { // the head, on the only lane
			close(stalled)
			<-gate
		}
	})
	t.Cleanup(func() {
		release()
		svc.Close()
	})
	gw := New(svc, Config{})
	if w := serve(gw, http.MethodPost, "/v1/submissions", head); w.Code != http.StatusAccepted {
		t.Fatalf("head: status %d", w.Code)
	}
	<-stalled
	return svc, gw, release
}

// TestIdenticalPostsShareOneRecord: concurrent POSTs of one new archive
// race to publish; however they interleave, each answers with the
// archive's id and the indexes end with exactly one record.
func TestIdenticalPostsShareOneRecord(t *testing.T) {
	ck, corpus := trainedChecker(t)
	fx := newFixtureWith(t, ck, vetsvc.Config{Workers: 2, QueueSize: 16}, Config{})
	data := buildAPK(t, corpus, 0)
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := serve(fx.gw, http.MethodPost, "/v1/submissions?wait=30s", data)
			var st SubmissionStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusOK {
				t.Errorf("POST %d: status %d, %s (%v)", i, w.Code, w.Body, err)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := range ids {
		if ids[i] != ids[0] {
			t.Errorf("POST %d answered id %s, POST 0 %s", i, ids[i], ids[0])
		}
	}
	if byID, bySeq := indexSizes(fx.gw); byID != 1 || bySeq != 1 {
		t.Errorf("indexes hold %d by id and %d by seq, want 1 and 1", byID, bySeq)
	}
}
