package gateway

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"apichecker/internal/core"
	"apichecker/internal/vetsvc"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// discardResponse is a reusable http.ResponseWriter that keeps the status
// and drops the body, so measuring a handler counts only the handler.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }

// reusableBody is a request body that can be rewound without allocating.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// TestHitAllocBudget: a warm admission hit through ServeHTTP allocates
// only what outlives the request: the hex id, the gateway's record, the
// service's record, the verdict and its package string. (Behind a real
// connection net/http adds the Header.Clone any Content-Type forces; this
// writer does not.) With MaxRecords 1, as the benchmark runs it, two
// archives posted in turn are each a new admission hit. The budget is the
// measured 5.
func TestHitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	ck, corpus := trainedChecker(t)
	archives := [2][]byte{buildAPK(t, corpus, 0), buildAPK(t, corpus, 1)}
	for _, data := range archives {
		if _, err := ck.Vet(context.Background(), core.Submission{Raw: data}); err != nil {
			t.Fatal(err)
		}
	}
	svc := vetsvc.New(ck, vetsvc.Config{Workers: 1, QueueSize: 4})
	t.Cleanup(svc.Close)
	gw := New(svc, Config{MaxRecords: 1})

	req := httptest.NewRequest(http.MethodPost, "/v1/submissions", nil)
	body := new(reusableBody)
	w := &discardResponse{h: make(http.Header)}
	i := 0
	post := func() {
		data := archives[i%2]
		i++
		body.Reset(data)
		req.Body, req.ContentLength = body, int64(len(data))
		gw.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("post %d: status %d", i, w.code)
		}
	}
	for range 8 {
		post()
	}
	const budget = 5
	if n := testing.AllocsPerRun(200, post); n > budget {
		t.Errorf("a warm admission hit allocates %.0f times, budget %d", n, budget)
	} else {
		t.Logf("a warm admission hit allocates %.0f times", n)
	}
	if n := svc.Metrics().CacheHits; n < 200 {
		t.Errorf("%d cache hits: the posts were not admission hits", n)
	}
}
