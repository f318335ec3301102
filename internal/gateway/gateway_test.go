package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/obs"
	"apichecker/internal/vetsvc"
)

var testU = framework.MustGenerate(framework.TestConfig(3000))

// onEvent attaches fn to svc's lifecycle events (obs.KindService). Attach
// it right after vetsvc.New, before the first Submit, to see every event.
func onEvent(svc *vetsvc.Service, fn func(obs.Event)) {
	svc.Obs().AddSink(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindService {
			fn(ev)
		}
	}))
}

// trainedChecker builds an independent trained checker; training is
// deterministic, so two calls yield behaviourally identical checkers
// with independent vet-sequence counters.
func trainedChecker(t *testing.T) (*core.Checker, *dataset.Corpus) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumApps = 500
	corpus, err := dataset.Generate(testU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := core.TrainFromCorpus(corpus, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ck, corpus
}

// gatewayFixture is one running HTTP gateway over a fresh service.
type gatewayFixture struct {
	ck  *core.Checker
	svc *vetsvc.Service
	gw  *Server
	ts  *httptest.Server
}

func newFixture(t *testing.T, scfg vetsvc.Config, gcfg Config) *gatewayFixture {
	t.Helper()
	ck, _ := trainedChecker(t)
	return newFixtureWith(t, ck, scfg, gcfg)
}

func newFixtureWith(t *testing.T, ck *core.Checker, scfg vetsvc.Config, gcfg Config) *gatewayFixture {
	t.Helper()
	svc := vetsvc.New(ck, scfg)
	gw := New(svc, gcfg)
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &gatewayFixture{ck: ck, svc: svc, gw: gw, ts: ts}
}

// buildAPK serializes corpus program i into archive bytes.
func buildAPK(t *testing.T, corpus *dataset.Corpus, i int) []byte {
	t.Helper()
	data, err := apk.Build(corpus.Program(i), testU)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// postAPK submits one archive and decodes the response.
func postAPK(t *testing.T, base, query string, data []byte) (SubmissionStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/submissions"+query, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SubmissionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
	}
	return st, resp
}

// TestGatewayEquivalence is the acceptance contract: a submission vetted
// through the HTTP gateway yields a verdict bit-identical to the
// in-process Vet path for the same bytes.
func TestGatewayEquivalence(t *testing.T) {
	ckHTTP, corpus := trainedChecker(t)
	ckLocal, _ := trainedChecker(t)
	fx := newFixtureWith(t, ckHTTP, vetsvc.Config{Workers: 4, QueueSize: 16}, Config{})

	for i := 0; i < 5; i++ {
		data := buildAPK(t, corpus, i)
		want, err := ckLocal.Vet(context.Background(), core.Submission{Raw: data})
		if err != nil {
			t.Fatal(err)
		}
		st, resp := postAPK(t, fx.ts.URL, "?wait=30s", data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("app %d: status %d (%s), want 200", i, resp.StatusCode, st.Error)
		}
		if st.ID != apk.Digest(data) {
			t.Errorf("app %d: submission id %q is not the content digest", i, st.ID)
		}
		if st.Verdict == nil {
			t.Fatalf("app %d: done response carries no verdict", i)
		}
		if *st.Verdict != *want {
			t.Errorf("app %d: HTTP verdict diverged from in-process Vet:\nhttp:  %+v\nlocal: %+v",
				i, *st.Verdict, *want)
		}
	}
}

// TestGatewaySubmitPollTrace drives concurrent submit/poll/trace clients
// against one gateway (this test is the -race workout) and checks the
// trace stream replays the full span chain.
func TestGatewaySubmitPollTrace(t *testing.T) {
	ck, corpus := trainedChecker(t)
	fx := newFixtureWith(t, ck, vetsvc.Config{Workers: 4, QueueSize: 32}, Config{})

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := buildAPK(t, corpus, i)
			st, resp := postAPK(t, fx.ts.URL, "", data)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("app %d: submit status %d", i, resp.StatusCode)
				return
			}
			// Poll until settled, then stream the trace (pure replay).
			deadline := time.Now().Add(30 * time.Second)
			for {
				got, resp := getStatus(t, fx.ts.URL, st.ID, "")
				if resp.StatusCode == http.StatusOK {
					st = got
					break
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("app %d: still %s at deadline", i, got.Status)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st.Verdict == nil {
				errs <- fmt.Errorf("app %d: done without verdict", i)
				return
			}
			stages, done, err := readTrace(fx.ts.URL, st.ID)
			if err != nil {
				errs <- fmt.Errorf("app %d: trace: %w", i, err)
				return
			}
			if !done {
				errs <- fmt.Errorf("app %d: trace stream ended without done event", i)
				return
			}
			for _, want := range []string{"admit", "cache.lookup", "decode", "emulate", "extract", "infer"} {
				if !stages[want] {
					errs <- fmt.Errorf("app %d: trace replay missing stage %s (got %v)", i, want, stages)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Byte-identical resubmission joins the existing record: same ID, no
	// new vet.
	data := buildAPK(t, corpus, 0)
	st1, _ := postAPK(t, fx.ts.URL, "?wait=30s", data)
	accepted := fx.gw.Obs().Counter("gw.submissions.accepted").Load()
	st2, _ := postAPK(t, fx.ts.URL, "?wait=30s", data)
	if st1.ID != st2.ID {
		t.Errorf("resubmission changed id: %s vs %s", st1.ID, st2.ID)
	}
	if got := fx.gw.Obs().Counter("gw.submissions.accepted").Load(); got != accepted {
		t.Errorf("resubmission started a new vet (accepted %d -> %d)", accepted, got)
	}
}

// getStatus polls one submission.
func getStatus(t *testing.T, base, id, query string) (SubmissionStatus, *http.Response) {
	t.Helper()
	resp, err := http.Get(base + "/v1/submissions/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SubmissionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode poll response (status %d): %v", resp.StatusCode, err)
	}
	return st, resp
}

// readTrace consumes one SSE trace stream to completion, returning the
// set of span stages seen and whether the terminal done event arrived.
func readTrace(base, id string) (stages map[string]bool, done bool, err error) {
	resp, err := http.Get(base + "/v1/submissions/" + id + "/trace")
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, false, fmt.Errorf("content-type %q", ct)
	}
	stages = map[string]bool{}
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			payload := strings.TrimPrefix(line, "data: ")
			switch event {
			case "span":
				var sp traceSpan
				if err := json.Unmarshal([]byte(payload), &sp); err != nil {
					return stages, false, err
				}
				stages[sp.Stage] = true
			case "done":
				return stages, true, nil
			}
		}
	}
	return stages, false, sc.Err()
}

// TestGatewayBackpressure429: a full service queue maps to 429 with a
// Retry-After hint, and the archive is not admitted.
func TestGatewayBackpressure429(t *testing.T) {
	ck, corpus := trainedChecker(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	svc := vetsvc.New(ck, vetsvc.Config{
		Workers:   1,
		QueueSize: 1,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name == vetsvc.EventStarted {
			<-gate
		}
	})
	gw := New(svc, Config{})
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		release()
		svc.Close()
	})

	// Head submission stalls the only lane; the second fills the queue.
	if _, resp := postAPK(t, ts.URL, "", buildAPK(t, corpus, 0)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("head submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the head submission")
		}
		time.Sleep(time.Millisecond)
	}
	if _, resp := postAPK(t, ts.URL, "", buildAPK(t, corpus, 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submit status %d", resp.StatusCode)
	}

	st, resp := postAPK(t, ts.URL, "", buildAPK(t, corpus, 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit into full queue: status %d (%s), want 429", resp.StatusCode, st.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response carries no Retry-After hint")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a whole number of seconds >= 1", ra)
	}
	// The rejected archive left no record behind.
	if _, resp := getStatus(t, ts.URL, apk.Digest(buildAPK(t, corpus, 2)), ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("rejected submission left a record (poll status %d)", resp.StatusCode)
	}
}

// TestGatewayDrainDuringInflight: Shutdown stops admissions immediately
// (503), and a hard drain propagates ErrDraining into the in-flight
// submission's record.
func TestGatewayDrainDuringInflight(t *testing.T) {
	ck, corpus := trainedChecker(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	svc := vetsvc.New(ck, vetsvc.Config{
		Workers:   1,
		QueueSize: 4,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name == vetsvc.EventStarted {
			<-gate
		}
	})
	gw := New(svc, Config{})
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)

	data := buildAPK(t, corpus, 0)
	st, resp := postAPK(t, ts.URL, "", data)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the submission")
		}
		time.Sleep(time.Millisecond)
	}

	// Shutdown with a short budget: the stalled submission cannot finish,
	// so the drain hard-cancels it with ErrDraining.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		shutdownDone <- gw.Shutdown(ctx)
	}()

	// Admissions stop immediately, before the drain resolves. The gate is
	// watched through /healthz, which admits nothing: an archive posted in
	// the moment before Shutdown flips the gate would be admitted, drained
	// and counted beside the one this test is about.
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("draining /healthz status %d, want 503", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, resp := postAPK(t, ts.URL, "", buildAPK(t, corpus, 1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining gateway still admits (status %d)", resp.StatusCode)
	}

	// Let the hard-cancel fire (timer-driven), then release the lane so
	// the canceled vet unwinds.
	time.Sleep(1 * time.Second)
	release()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	got, resp := getStatus(t, ts.URL, st.ID, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained submission poll status %d (%+v), want 503", resp.StatusCode, got)
	}
	if got.Status != "failed" || !strings.Contains(got.Error, "draining") {
		t.Errorf("drained submission = %+v, want failed with draining error", got)
	}
	if m := svc.Metrics(); m.Drained != 1 {
		t.Errorf("metrics.Drained = %d, want 1", m.Drained)
	}
}

// TestGatewayRejectsGarbage: non-zip bodies 400, oversize bodies 413,
// malformed zips fail the vet with 422.
func TestGatewayRejectsGarbage(t *testing.T) {
	fx := newFixture(t, vetsvc.Config{Workers: 2, QueueSize: 8}, Config{MaxUploadBytes: 1 << 20})

	if st, resp := postAPK(t, fx.ts.URL, "", []byte("definitely not a zip")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d (%+v), want 400", resp.StatusCode, st)
	}
	big := make([]byte, 2<<20)
	big[0], big[1] = 'P', 'K'
	if st, resp := postAPK(t, fx.ts.URL, "", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d (%+v), want 413", resp.StatusCode, st)
	}
	// Valid zip magic, invalid archive: admitted, then fails decode.
	if st, resp := postAPK(t, fx.ts.URL, "?wait=30s", []byte{'P', 'K', 3, 4, 9, 9}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("truncated zip: status %d (%+v), want 422", resp.StatusCode, st)
	}
	if _, resp := getStatus(t, fx.ts.URL, "nonexistent", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsExposesEverything: every counter, gauge, and distribution
// on the checker's, service's, and gateway's collectors appears in the
// /metrics exposition — with no per-metric code in the exporter.
func TestMetricsExposesEverything(t *testing.T) {
	ck, corpus := trainedChecker(t)
	fx := newFixtureWith(t, ck, vetsvc.Config{Workers: 2, QueueSize: 8}, Config{})

	st, resp := postAPK(t, fx.ts.URL, "?wait=30s", buildAPK(t, corpus, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, st.Error)
	}
	fx.svc.Metrics() // publishes the heap gauge

	mresp, err := http.Get(fx.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	text := string(body)
	for _, col := range []struct {
		name string
		c    interface {
			Counters() map[string]uint64
			Gauges() map[string]int64
		}
	}{{"checker", fx.ck.Obs()}, {"service", fx.svc.Obs()}, {"gateway", fx.gw.Obs()}} {
		for name := range col.c.Counters() {
			if !strings.Contains(text, metricName("apichecker", name)+"_total") {
				t.Errorf("%s counter %q missing from /metrics", col.name, name)
			}
		}
		for name := range col.c.Gauges() {
			if !strings.Contains(text, metricName("apichecker", name)) {
				t.Errorf("%s gauge %q missing from /metrics", col.name, name)
			}
		}
	}
	for name := range fx.svc.Obs().Distributions() {
		if !strings.Contains(text, metricName("apichecker", name)+`{quantile="0.99"}`) {
			t.Errorf("distribution %q missing quantile rows in /metrics", name)
		}
	}
	// Stage aggregates ride along with stage labels.
	if !strings.Contains(text, `apichecker_stage_spans_total{stage="emulate"}`) {
		t.Error("stage span counters missing from /metrics")
	}
}

// TestGatewayUploadLengths: the upload buffer is sized from the declared
// Content-Length, so the declared length is put against the bytes that
// arrive — equal, absent (chunked), fewer and more — and the answer is in
// each case the one io.ReadAll gave.
func TestGatewayUploadLengths(t *testing.T) {
	ck, corpus := trainedChecker(t)
	fx := newFixtureWith(t, ck, vetsvc.Config{Workers: 2, QueueSize: 8}, Config{})
	data := buildAPK(t, corpus, 0)
	honest, resp := postAPK(t, fx.ts.URL, "?wait=30s", data)
	if resp.StatusCode != http.StatusOK || honest.Verdict == nil || honest.ID != apk.Digest(data) {
		t.Fatalf("declared upload: status %d, %+v", resp.StatusCode, honest)
	}

	// No declared length: a reader net/http cannot size goes out chunked.
	req, err := http.NewRequest(http.MethodPost, fx.ts.URL+"/v1/submissions?wait=30s", struct{ io.Reader }{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var chunked SubmissionStatus
	err = json.NewDecoder(cresp.Body).Decode(&chunked)
	cresp.Body.Close()
	if err != nil || cresp.StatusCode != http.StatusOK || chunked.ID != honest.ID || *chunked.Verdict != *honest.Verdict {
		t.Fatalf("chunked upload: status %d, %+v (%v); want the declared upload's %+v", cresp.StatusCode, chunked, err, honest)
	}

	// raw sends declared as the Content-Length and body as what follows,
	// and reads one response. A body that stops short is ended by closing
	// the sending half; a complete one is not, because the server takes a
	// client that hangs up mid-wait to have lost interest.
	raw := func(declared int, body []byte) (int, SubmissionStatus) {
		t.Helper()
		conn, err := net.Dial("tcp", fx.ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/submissions?wait=30s HTTP/1.1\r\nHost: gateway\r\nContent-Length: %d\r\n\r\n", declared)
		conn.Write(body)
		if len(body) < declared {
			conn.(*net.TCPConn).CloseWrite()
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st SubmissionStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, st
	}
	fresh := buildAPK(t, corpus, 1)
	if code, st := raw(len(fresh), fresh[:len(fresh)/2]); code != http.StatusBadRequest || !strings.Contains(st.Error, "reading request body") {
		t.Errorf("body shorter than declared: status %d, %+v; want 400", code, st)
	}
	// Bytes past the declared length are not the submission's: the archive
	// is vetted as if they had not been sent.
	if code, st := raw(len(fresh), append(append([]byte{}, fresh...), "trailing garbage"...)); code != http.StatusOK || st.ID != apk.Digest(fresh) {
		t.Errorf("body longer than declared: status %d, %+v; want 200 for %s", code, st, apk.Digest(fresh))
	}
	// Declaring half an archive submits half an archive.
	half := buildAPK(t, corpus, 2)
	half = half[:len(half)/2]
	if code, st := raw(len(half), append(append([]byte{}, half...), "the other half"...)); code != http.StatusUnprocessableEntity || st.ID != apk.Digest(half) {
		t.Errorf("declared half an archive: status %d, %+v; want 422 for %s", code, st, apk.Digest(half))
	}
}

// serve runs one request through the gateway's handler in the calling
// goroutine: no listener, no connection goroutines.
func serve(gw *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return w
}

// TestPollIsTerminalOnceSettled: the moment the service settles a
// submission (its done event, emitted synchronously by the settling
// goroutine), a poll reads the verdict or the error — never 202. Hits,
// misses and a 422 all take that path.
func TestPollIsTerminalOnceSettled(t *testing.T) {
	ck, corpus := trainedChecker(t)
	svc := vetsvc.New(ck, vetsvc.Config{Workers: 4, QueueSize: 128})
	t.Cleanup(svc.Close)
	gw := New(svc, Config{})

	const n = 100
	archives := make([][]byte, 0, n+1)
	for i := 0; i < n; i++ {
		data := buildAPK(t, corpus, i)
		if i%2 == 0 {
			// Vetted in process first: the gateway's submission is a hit.
			if _, err := ck.Vet(context.Background(), core.Submission{Raw: data}); err != nil {
				t.Fatal(err)
			}
		}
		archives = append(archives, data)
	}
	archives = append(archives, []byte{'P', 'K', 3, 4, 9, 9}) // admitted, then 422

	var (
		mu     sync.Mutex
		polled = map[string]int{} // submission id -> status code at its done event
		sunk   sync.WaitGroup
	)
	sunk.Add(len(archives))
	onEvent(svc, func(ev obs.Event) {
		if ev.Name != vetsvc.EventDone {
			return
		}
		defer sunk.Done()
		gw.regMu.RLock()
		rec := gw.bySeq[ev.Trace]
		gw.regMu.RUnlock()
		if rec == nil {
			t.Errorf("done event for seq %d has no gateway record", ev.Trace)
			return
		}
		w := serve(gw, http.MethodGet, "/v1/submissions/"+rec.id, nil)
		mu.Lock()
		polled[rec.id] = w.Code
		mu.Unlock()
	})
	for i, data := range archives {
		if w := serve(gw, http.MethodPost, "/v1/submissions", data); w.Code != http.StatusAccepted && w.Code != http.StatusOK {
			t.Fatalf("archive %d: submit status %d: %s", i, w.Code, w.Body)
		}
	}
	sunk.Wait()

	for i, data := range archives {
		want := http.StatusOK
		if i == n {
			want = http.StatusUnprocessableEntity
		}
		if got, ok := polled[apk.Digest(data)]; got != want {
			t.Errorf("archive %d: poll at its done event answered %d (polled: %v), want %d", i, got, ok, want)
		}
	}
	if m := svc.Metrics(); m.CacheHits == 0 || m.CacheMisses == 0 || m.Failed != 1 {
		t.Errorf("mix: %d hits, %d misses, %d failed; want some hits, some misses, one failure",
			m.CacheHits, m.CacheMisses, m.Failed)
	}
}

// TestNoGoroutinePerInflightSubmission: an accepted submission costs the
// gateway no goroutine while it waits for a lane.
func TestNoGoroutinePerInflightSubmission(t *testing.T) {
	ck, corpus := trainedChecker(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	svc := vetsvc.New(ck, vetsvc.Config{
		Workers:   1,
		QueueSize: 64,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name == vetsvc.EventStarted {
			<-gate
		}
	})
	t.Cleanup(func() {
		release()
		svc.Close()
	})
	gw := New(svc, Config{})

	const n = 50
	archives := make([][]byte, n)
	for i := range archives {
		archives[i] = buildAPK(t, corpus, i)
	}
	before := runtime.NumGoroutine()
	for i, data := range archives {
		if w := serve(gw, http.MethodPost, "/v1/submissions", data); w.Code != http.StatusAccepted {
			t.Fatalf("archive %d: submit status %d: %s", i, w.Code, w.Body)
		}
	}
	if grown := runtime.NumGoroutine() - before; grown >= n/2 {
		t.Errorf("%d in-flight submissions grew the goroutine count by %d", n, grown)
	}
}

// FuzzQueryValueMatchesURLValues: queryValue reads the value
// r.URL.Query().Get reads, from any raw query — percent-encoded keys and
// values, '+', repeats, pairs that do not unescape, semicolons.
func FuzzQueryValueMatchesURLValues(f *testing.F) {
	for _, q := range []string{
		"", "wait=30s", "wait=30%73", "w%61it=1s", "wait=1+s", "wait", "wait=",
		"a=1&wait=2s&wait=3s", "wait=%zz&wait=2s", "w%zzit=1s&wait=4s", "wait=1s;x=2&wait=5s",
		"&&wait=6s&", "=&wait==7s", "wait%3D8s", "WAIT=9s",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, query string) {
		want := (&url.URL{RawQuery: query}).Query().Get("wait")
		if got := queryValue(query, "wait"); got != want {
			t.Fatalf("queryValue(%q) = %q, url.Values reads %q", query, got, want)
		}
	})
}

// TestPercentEncodedWait: a percent-encoded ?wait= blocks for the
// duration it spells, like a plain one.
func TestPercentEncodedWait(t *testing.T) {
	ck, corpus := trainedChecker(t)
	fx := newFixtureWith(t, ck, vetsvc.Config{Workers: 2}, Config{})
	st, resp := postAPK(t, fx.ts.URL, "?w%61it=30%73", buildAPK(t, corpus, 0))
	if resp.StatusCode != http.StatusOK || st.Status != "done" {
		t.Fatalf("?w%%61it=30%%73: %d %+v, want a 200 done", resp.StatusCode, st)
	}
	if _, resp := postAPK(t, fx.ts.URL, "?wait=30%2", buildAPK(t, corpus, 1)); resp.StatusCode == http.StatusBadRequest {
		t.Fatal("?wait=30%2 (does not unescape, so url.Values drops it) answered 400")
	}
}

// TestParseWaitClamps: a ?wait= budget is capped at maxWait (2 min), a
// shorter one is kept, and a malformed one answers 400.
func TestParseWaitClamps(t *testing.T) {
	for _, c := range []struct {
		query string
		want  time.Duration
		ok    bool
	}{
		{"", 0, true},
		{"wait=30s", 30 * time.Second, true},
		{"wait=2m", 2 * time.Minute, true},
		{"wait=10m", 2 * time.Minute, true},
		{"wait=-1s", 0, false},
		{"wait=soon", 0, false},
	} {
		rec := httptest.NewRecorder()
		got, ok := parseWait(rec, httptest.NewRequest(http.MethodGet, "/v1/submissions/x?"+c.query, nil))
		if got != c.want || ok != c.ok {
			t.Errorf("?%s: parseWait = %v, %v; want %v, %v", c.query, got, ok, c.want, c.ok)
		}
		if !ok && rec.Code != http.StatusBadRequest {
			t.Errorf("?%s: refused with status %d, want 400", c.query, rec.Code)
		}
	}
}
