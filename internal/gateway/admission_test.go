package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"apichecker/internal/core"
	"apichecker/internal/obs"
	"apichecker/internal/vetsvc"
	"apichecker/internal/workqueue"
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

// indexSizes reads the sizes of the gateway's record index and its
// eviction order.
func indexSizes(gw *Server) (byID, order int) {
	gw.regMu.RLock()
	defer gw.regMu.RUnlock()
	return len(gw.byID), len(gw.order)
}

// recordBySeq finds the published record whose ticket holds seq, or nil.
func recordBySeq(gw *Server, seq int64) *record {
	gw.regMu.RLock()
	defer gw.regMu.RUnlock()
	for _, rec := range gw.byID {
		if rec.ticket.Seq() == seq {
			return rec
		}
	}
	return nil
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
		if rec := recordBySeq(gw, ev.Trace); rec != nil {
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

// TestUploadBufferNotReusedWhileQueued: a queued miss keeps its upload
// buffer while admission hits recycle theirs. The only lane is held on a
// first miss, a second miss queues behind it, and then hits run through the
// upload pool with every returned buffer poisoned. The queued miss's
// journal frame still holds its archive, and its verdict is the one an
// independent checker gives the same bytes.
func TestUploadBufferNotReusedWhileQueued(t *testing.T) {
	ck, corpus := trainedChecker(t)
	ref, _ := trainedChecker(t)
	hits := [][]byte{buildAPK(t, corpus, 0), buildAPK(t, corpus, 1)}
	for _, data := range hits {
		if _, err := ck.Vet(context.Background(), core.Submission{Raw: data}); err != nil {
			t.Fatal(err)
		}
	}
	head, queued := buildAPK(t, corpus, 2), buildAPK(t, corpus, 3)
	want, err := ref.Vet(context.Background(), core.Submission{Raw: queued})
	if err != nil {
		t.Fatal(err)
	}

	uploads.Poison.Store(true)
	t.Cleanup(func() { uploads.Poison.Store(false) })
	dir := t.TempDir()
	svc, err := vetsvc.Open(ck, vetsvc.Config{Workers: 1, QueueSize: 4, QueueDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var once, gateOnce sync.Once
	held, gate := make(chan struct{}), make(chan struct{})
	release := func() { gateOnce.Do(func() { close(gate) }) }
	onEvent(svc, func(ev obs.Event) {
		if ev.Name != vetsvc.EventStarted {
			return
		}
		first := false
		once.Do(func() { first = true })
		if first { // the head, on the only lane
			close(held)
			<-gate
		}
	})
	t.Cleanup(func() {
		release()
		svc.Close()
	})
	// MaxRecords 1: every hit is a new record the service answers, never a
	// join on the last one.
	gw := New(svc, Config{MaxRecords: 1})

	if w := serve(gw, http.MethodPost, "/v1/submissions", head); w.Code != http.StatusAccepted {
		t.Fatalf("head: status %d: %s", w.Code, w.Body)
	}
	<-held
	if w := serve(gw, http.MethodPost, "/v1/submissions", queued); w.Code != http.StatusAccepted {
		t.Fatalf("queued miss: status %d: %s", w.Code, w.Body)
	}
	for i := range 40 {
		w := serve(gw, http.MethodPost, "/v1/submissions", hits[i%2])
		var st SubmissionStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusOK || st.Outcome != "hit" {
			t.Fatalf("hit %d: status %d, %s", i, w.Code, w.Body)
		}
	}

	// Replay a copy of the journal: the queued miss's frame is intact.
	log, err := os.ReadFile(filepath.Join(dir, "workqueue.log"))
	if err != nil {
		t.Fatal(err)
	}
	replayDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(replayDir, "workqueue.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	q, items, err := workqueue.Open(workqueue.Config{Dir: replayDir})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	found := false
	for _, it := range items {
		if it.Key == want.Digest {
			found = true
			if !bytes.Equal(it.Payload, queued) {
				t.Error("the queued miss's journal frame does not hold its archive")
			}
		}
	}
	if !found {
		t.Fatalf("no journal frame for the queued miss among %d replayed items", len(items))
	}

	release()
	w := serve(gw, http.MethodGet, "/v1/submissions/"+want.Digest+"?wait=30s", nil)
	var st SubmissionStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusOK || st.Verdict == nil {
		t.Fatalf("queued miss: status %d, %s", w.Code, w.Body)
	}
	if *st.Verdict != *want {
		t.Errorf("queued miss vetted from reused bytes:\n got %+v\nwant %+v", *st.Verdict, *want)
	}
}

// TestRefusedPostConsumesNoSeq: a POST refused with 429 consumes no vet
// seq, as vetsvc.ErrQueueFull promises. With the only lane stalled and the
// queue full, three refusals leave the checker's count alone, and the next
// accepted POST, an admission hit, answers the seq right after it.
func TestRefusedPostConsumesNoSeq(t *testing.T) {
	ck, corpus := trainedChecker(t)
	cached := buildAPK(t, corpus, 9)
	if _, err := ck.Vet(context.Background(), core.Submission{Raw: cached}); err != nil {
		t.Fatal(err)
	}
	_, gw, _ := stalledGateway(t, ck, buildAPK(t, corpus, 0), 1)
	if w := serve(gw, http.MethodPost, "/v1/submissions", buildAPK(t, corpus, 1)); w.Code != http.StatusAccepted {
		t.Fatalf("filling the queue: status %d: %s", w.Code, w.Body)
	}
	before := ck.VetCount()
	for i := 2; i < 5; i++ {
		if w := serve(gw, http.MethodPost, "/v1/submissions", buildAPK(t, corpus, i)); w.Code != http.StatusTooManyRequests {
			t.Fatalf("archive %d on a full queue: status %d, want 429", i, w.Code)
		}
	}
	if n := ck.VetCount(); n != before {
		t.Errorf("three 429s moved VetCount %d -> %d", before, n)
	}
	w := serve(gw, http.MethodPost, "/v1/submissions", cached)
	var st SubmissionStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusOK {
		t.Fatalf("cached archive: status %d, %s (%v)", w.Code, w.Body, err)
	}
	if st.Seq != before+1 {
		t.Errorf("the POST after three 429s answered seq %d, want %d", st.Seq, before+1)
	}
}

// TestShutGatewayIsCollected: a gateway registers nothing on the checker or
// the service it serves over, so once it has served a POST, shut down and
// been dropped, the collector frees it while both live on.
func TestShutGatewayIsCollected(t *testing.T) {
	ck, corpus := trainedChecker(t)
	svc := vetsvc.New(ck, vetsvc.Config{Workers: 1, QueueSize: 4})
	gw := New(svc, Config{})
	if w := serve(gw, http.MethodPost, "/v1/submissions?wait=30s", buildAPK(t, corpus, 0)); w.Code != http.StatusOK {
		t.Fatalf("POST: status %d: %s", w.Code, w.Body)
	}
	if err := gw.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	shut := weak.Make(gw)
	gw = nil
	runtime.GC()
	if shut.Value() != nil {
		t.Error("a shut-down gateway is still reachable from the checker or the service it served")
	}
	runtime.KeepAlive(ck)
	runtime.KeepAlive(svc)
}
