// Package gateway is the wire-facing market frontend: an HTTP server over
// the always-on vetting service, turning the in-process Vet path into what
// the paper actually operates at T-Market — an always-on endpoint absorbing
// ~10k developer submissions a day over the network (§5.1-§5.2).
//
// The surface is four endpoints plus health:
//
//   - POST /v1/submissions — submit raw APK bytes (bounded read; the
//     apk package's zip-bomb gate vets the declared uncompressed size
//     during decode). Returns a submission ID backed by the content
//     digest, so byte-identical resubmissions map to the same resource
//     and ride the checker's verdict cache. Backpressure is explicit:
//     a full service queue maps to 429 with Retry-After, a draining
//     service to 503, a per-submission deadline expiry to 504.
//   - GET /v1/submissions/{id} — poll the submission; ?wait=<dur> blocks
//     until the verdict (or the wait budget) instead.
//   - GET /v1/submissions/{id}/trace — a livelog-style SSE stream of the
//     submission's per-stage pipeline spans: completed spans replay
//     first, in-flight ones stream as the pipeline emits them.
//   - GET /metrics — Prometheus text exposition derived generically from
//     the obs collectors (checker, service, gateway): every counter,
//     gauge, distribution, and stage aggregate is exported with zero
//     per-metric registration code.
//
// Shutdown drains gracefully: admissions stop (503), in-flight
// submissions finish (hard-cancelled with vetsvc.ErrDraining when the
// drain deadline expires), the persist log is flushed, and only then does
// the HTTP listener close.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/obs"
	"apichecker/internal/pipeline"
	"apichecker/internal/vetsvc"
)

// Config tunes one gateway instance. The zero value selects production
// defaults.
type Config struct {
	// MaxUploadBytes bounds the request body of POST /v1/submissions
	// (the wire-size gate in front of apk.Parse's decoded-size gate);
	// <= 0 selects apk.MaxDecodedBytes.
	MaxUploadBytes int64

	// MaxRecords bounds the submission-record registry. When exceeded,
	// the oldest completed records are evicted (their verdicts remain in
	// the verdict cache; re-POSTing the same bytes re-answers from it).
	// <= 0 selects 4096.
	MaxRecords int

	// Cluster, when set, mounts the vet-cluster coordinator's wire
	// protocol (claim/heartbeat/nack + model pulls) on this gateway's
	// mux and folds its fleet view into /healthz. The concrete type is
	// *cluster.Coordinator; the interface keeps the gateway ignorant of
	// the cluster package (cluster sits below the gateway in the import
	// graph, never the reverse).
	Cluster ClusterCoordinator
}

// ClusterCoordinator is the slice of the vet-cluster coordinator the
// gateway needs: route registration and the live-fleet gauge.
type ClusterCoordinator interface {
	Mount(mux *http.ServeMux)
	LiveNodes() int
}

const (
	// maxWait caps the ?wait= blocking budget a client may request.
	maxWait = 2 * time.Minute
	// minRetryAfter floors the 429 backoff hint: the drain estimate is 0
	// once the backlog has emptied, and a client told "Retry-After: 0"
	// retries at once.
	minRetryAfter = time.Second
)

// withDefaults clamps out-of-range values.
func (c Config) withDefaults() Config {
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = apk.MaxDecodedBytes
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = 4096
	}
	return c
}

// Server is a running gateway over one vetting service. Construct with
// New; it implements http.Handler.
type Server struct {
	cfg Config
	svc *vetsvc.Service
	ck  *core.Checker
	mux *http.ServeMux

	// col is the gateway's own observability namespace (gw.* counters);
	// it is exported by /metrics alongside the checker's and service's.
	col *obs.Collector

	// regMu guards the two record indexes, the eviction order, and the
	// setting of a record's ticket. Nothing that emits an obs event runs
	// under it (Submit is called outside it), so a sink may call back into
	// the gateway.
	regMu sync.RWMutex
	byID  map[string]*record
	bySeq map[int64]*record
	order []*record

	draining atomic.Bool

	httpMu   sync.Mutex
	httpSrv  *http.Server
	listener net.Listener
}

// record indexes one submission: the service's ticket, which holds its
// state, verdict and completion (the gateway keeps no copy of them), plus
// the span log and any live trace subscribers. The record sits in bySeq
// from its seq reservation, and its ticket is set under regMu when it
// enters byID, so every reader that finds it by id finds the ticket.
type record struct {
	id     string
	seq    int64
	ticket *vetsvc.Ticket

	mu    sync.Mutex
	spans []obs.Event
	subs  []chan obs.Event
}

// New builds a gateway over a running vetting service. The server routes
// pipeline spans from the checker's obs collector to per-submission trace
// streams; register it before traffic flows.
func New(svc *vetsvc.Service, cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		svc:   svc,
		ck:    svc.Checker(),
		col:   obs.NewCollector(),
		byID:  make(map[string]*record),
		bySeq: make(map[int64]*record),
	}
	s.ck.Obs().AddSink(obs.SinkFunc(s.routeSpan))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submissions", s.handleSubmit)
	mux.HandleFunc("GET /v1/submissions/{id}", s.handlePoll)
	mux.HandleFunc("GET /v1/submissions/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Mount(mux)
	}
	s.mux = mux
	return s
}

// Obs returns the gateway's own observability collector (gw.* counters).
func (s *Server) Obs() *obs.Collector { return s.col }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Serve runs an HTTP server for the gateway on l until Shutdown. It
// returns the error from http.Server.Serve (http.ErrServerClosed after a
// clean Shutdown).
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s}
	s.httpMu.Lock()
	s.httpSrv, s.listener = srv, l
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// ListenAndServe is Serve on a fresh TCP listener.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr returns the listener address once Serve is running ("" before).
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Shutdown drains the gateway gracefully: new submissions are rejected
// with 503 immediately, the vetting service drains (in-flight submissions
// finish; when ctx expires first they are hard-cancelled with
// vetsvc.ErrDraining), the verdict persist log is flushed, and finally
// the HTTP listener closes. Safe to call without Serve (drains the
// service and persist tier only).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.svc.Drain(ctx)
	err := s.ck.ClosePersist()
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		if herr := srv.Shutdown(ctx); herr != nil && err == nil {
			err = herr
		}
	}
	return err
}

// routeSpan is the obs sink fanning checker pipeline spans out to the
// submission records that subscribed to them. Called synchronously from
// vetting goroutines: one RLock and an append.
func (s *Server) routeSpan(ev obs.Event) {
	if ev.Kind != obs.KindSpan {
		return
	}
	s.regMu.RLock()
	rec := s.bySeq[ev.Trace]
	s.regMu.RUnlock()
	if rec != nil {
		rec.addSpan(ev)
	}
}

// addSpan appends one span to the record's log and pushes it to live
// trace subscribers (non-blocking: a stalled subscriber misses events
// rather than stalling the pipeline).
func (r *record) addSpan(ev obs.Event) {
	r.mu.Lock()
	r.spans = append(r.spans, ev)
	subs := r.subs
	r.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe snapshots the replayable spans and, if the submission is
// still in flight, registers a live channel for the rest. The pipeline
// emits every span before the ticket settles, so a settled ticket seen
// under r.mu means the replay is complete, and an unsettled one means
// every later span reaches the channel.
func (r *record) subscribe() (replay []obs.Event, live chan obs.Event, finished bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	replay = append([]obs.Event(nil), r.spans...)
	if r.settled() {
		return replay, nil, true
	}
	live = make(chan obs.Event, 64)
	r.subs = append(r.subs, live)
	return replay, live, false
}

// unsubscribe removes a live trace channel.
func (r *record) unsubscribe(ch chan obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range r.subs {
		if c == ch {
			r.subs = append(r.subs[:i], r.subs[i+1:]...)
			return
		}
	}
}

// settled reports whether the submission has its verdict or error, without
// allocating the ticket's done channel.
func (r *record) settled() bool {
	st := r.ticket.State()
	return st == "done" || st == "failed"
}

// SubmissionStatus is the JSON resource for one submission.
type SubmissionStatus struct {
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
	// Status is the submission's position in the serving state machine:
	// queued | claimed | done | failed.
	Status string `json:"status"`
	// Outcome reports how a done submission's verdict was served (miss |
	// hit | coalesced | bypass), as the service's record settled it.
	Outcome string        `json:"outcome,omitempty"`
	Verdict *core.Verdict `json:"verdict,omitempty"`
	Error   string        `json:"error,omitempty"`
	// Stage attributes a failure to the pipeline stage it died in.
	Stage string `json:"stage,omitempty"`
}

// errorBody is the JSON error envelope for non-submission failures.
type errorBody struct {
	Error string `json:"error"`
}

// status snapshots the record as its JSON resource plus the HTTP status
// code the snapshot maps to (202 in flight; 200 done; typed failures per
// the backpressure table: 504 deadline, 503 drain, 422 bad archive, 500
// otherwise).
func (r *record) status() (SubmissionStatus, int) {
	st := SubmissionStatus{ID: r.id, Seq: r.seq, Status: r.ticket.State()}
	if st.Status == "queued" || st.Status == "claimed" {
		return st, http.StatusAccepted
	}
	// Settled: Wait returns at once.
	v, err := r.ticket.Wait(context.Background())
	if err == nil {
		st.Outcome = r.ticket.Outcome().String()
		st.Verdict = v
		return st, http.StatusOK
	}
	st.Error = err.Error()
	if stage, ok := pipeline.FailedStage(err); ok {
		st.Stage = stage
	}
	switch {
	case errors.Is(err, core.ErrDeadlineExceeded):
		return st, http.StatusGatewayTimeout
	case errors.Is(err, vetsvc.ErrDraining) || errors.Is(err, vetsvc.ErrClosed):
		return st, http.StatusServiceUnavailable
	case errors.Is(err, apk.ErrBadAPK) || errors.Is(err, core.ErrBadSubmission):
		return st, http.StatusUnprocessableEntity
	default:
		return st, http.StatusInternalServerError
	}
}

// presizedUploadBytes is the largest declared Content-Length the upload
// buffer is sized from up front (io.ReadAll reaches a 7.5 KB archive in
// nine doublings, 34 KB allocated). Beyond it, and for chunked uploads,
// the buffer grows with the bytes that arrive, so a client that declares
// the whole upload bound and sends nothing costs a megabyte, not 64.
const presizedUploadBytes = 1 << 20

// handleSubmit is POST /v1/submissions: read the archive (bounded),
// digest it, admit it to the vetting service (or join the existing
// record for these bytes), and answer with the submission resource.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.col.Counter("gw.rejected.draining").Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: vetsvc.ErrDraining.Error()})
		return
	}
	wait, ok := parseWait(w, r)
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	var data []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= min(s.cfg.MaxUploadBytes, presizedUploadBytes) {
		// The server hands the handler exactly the declared bytes, or an
		// error if the client sent fewer.
		data = make([]byte, n)
		_, err = io.ReadFull(body, data)
	} else {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.col.Counter("gw.rejected.oversize").Inc()
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("archive exceeds the %d-byte upload bound", s.cfg.MaxUploadBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading request body: " + err.Error()})
		return
	}
	// Cheap wire gate: a submission that is not even a zip container is
	// rejected synchronously; the apk package's decoded-size (zip-bomb)
	// gate and full validation run in the pipeline's decode stage.
	if len(data) < 4 || data[0] != 'P' || data[1] != 'K' {
		s.col.Counter("gw.rejected.notzip").Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "request body is not a zip archive"})
		return
	}
	id := apk.Digest(data)

	rec, err := s.admit(id, data)
	if err != nil {
		code := admitErrorCode(err)
		switch code {
		case http.StatusTooManyRequests:
			s.col.Counter("gw.rejected.backpressure").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		case http.StatusServiceUnavailable:
			s.col.Counter("gw.rejected.draining").Inc()
		}
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	s.respond(w, r, rec, wait)
}

// admitErrorCode maps a refused admission to its HTTP status: 429 for a
// full queue, 503 for a draining or closed service, 400 for a submission
// the service calls malformed, and 500 for anything else — a journal
// write that failed is the server's fault, not the upload's.
func admitErrorCode(err error) int {
	switch {
	case errors.Is(err, vetsvc.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, vetsvc.ErrDraining) || errors.Is(err, vetsvc.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrBadSubmission):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds turns live queue pressure into the 429 backoff hint:
// the service's drain estimate (how long the current backlog needs to
// clear the lanes), floored by minRetryAfter, in whole seconds rounded up.
func (s *Server) retryAfterSeconds() int {
	retry := max(s.svc.DrainEstimate(), minRetryAfter)
	return int((retry + time.Second - 1) / time.Second)
}

// admit finds or creates the record for one content digest. regMu covers
// only the join check, the seq reservation and the bySeq entry, so
// routeSpan can place every span of the vet; the service's Submit runs
// outside it, and publish puts the record in byID with its ticket before
// anything can settle it, so a reader never sees a record without one.
func (s *Server) admit(id string, data []byte) (*record, error) {
	s.regMu.Lock()
	if rec, ok := s.byID[id]; ok {
		s.regMu.Unlock()
		// Byte-identical resubmission: same resource, no new vet — the
		// digest is the submission ID (and the verdict-cache key).
		s.col.Counter("gw.submissions.joined").Inc()
		return rec, nil
	}
	rec := &record{id: id, seq: s.ck.ReserveVetSeqs(1)}
	s.bySeq[rec.seq] = rec
	s.regMu.Unlock()

	sub := core.Submission{Raw: data, Seq: rec.seq, Digest: id}
	if _, err := s.svc.SubmitPublish(context.Background(), sub, func(t *vetsvc.Ticket) { s.publish(rec, t) }); err != nil {
		s.unindex(rec)
		return nil, err
	}
	s.col.Counter("gw.submissions.accepted").Inc()
	return rec, nil
}

// publish sets the record's ticket and indexes it by id. A concurrent
// identical POST may have published first: then this record answers its
// own request from its own ticket and leaves both indexes to the winner.
func (s *Server) publish(rec *record, t *vetsvc.Ticket) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	rec.ticket = t
	if _, ok := s.byID[rec.id]; ok {
		delete(s.bySeq, rec.seq)
		return
	}
	s.byID[rec.id] = rec
	s.order = append(s.order, rec)
	s.evictLocked()
}

// unindex removes a record whose admission failed from both indexes.
func (s *Server) unindex(rec *record) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	delete(s.bySeq, rec.seq)
	if s.byID[rec.id] != rec {
		return
	}
	delete(s.byID, rec.id)
	for i, r := range s.order {
		if r == rec {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// evictLocked bounds the record registry: oldest completed records go
// first, from both indexes; in-flight records are never evicted (they are
// bounded by the service queue anyway). Caller holds regMu.
func (s *Server) evictLocked() {
	for len(s.byID) > s.cfg.MaxRecords {
		evicted := false
		for i, rec := range s.order {
			if rec.settled() {
				s.order = append(s.order[:i], s.order[i+1:]...)
				delete(s.byID, rec.id)
				delete(s.bySeq, rec.seq)
				s.col.Counter("gw.records.evicted").Inc()
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// parseWait reads the optional ?wait= blocking budget; on a malformed
// value it answers 400 and reports !ok. A budget over maxWait is clamped
// to it.
func parseWait(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	raw := queryValue(r.URL.RawQuery, "wait")
	if raw == "" {
		return 0, true
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "wait must be a non-negative Go duration (e.g. 30s)"})
		return 0, false
	}
	return min(d, maxWait), true
}

// queryValue reads the first value of key from a raw query string the way
// url.Values.Get reads it from r.URL.Query(), without building the map: a
// pair holding ';' or one that does not unescape is skipped, and key and
// value are unescaped ('+' is a space).
func queryValue(query, key string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// respond writes the submission resource, blocking up to wait for the
// verdict first.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, rec *record, wait time.Duration) {
	if wait > 0 && !rec.settled() {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-rec.ticket.Done():
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
	}
	st, code := rec.status()
	writeJSON(w, code, st)
}

// handlePoll is GET /v1/submissions/{id} (+ the blocking ?wait= form).
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	wait, ok := parseWait(w, r)
	if !ok {
		return
	}
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown submission id"})
		return
	}
	s.respond(w, r, rec, wait)
}

// lookup resolves a submission ID.
func (s *Server) lookup(id string) *record {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.byID[id]
}

// handleHealthz reports liveness plus the serving model generation and
// the live load picture (queue depth, in-flight leases, and — when this
// gateway fronts a vet cluster — the live worker-node count); a draining
// gateway answers 503 so load balancers stop routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	gen := s.ck.Generation()
	qs := s.svc.QueueStats()
	body := map[string]any{
		"status":      "ok",
		"generation":  gen.ID,
		"model":       gen.Digest,
		"queue_depth": qs.Depth,
		"leases":      qs.Leased,
	}
	if s.cfg.Cluster != nil {
		body["nodes"] = s.cfg.Cluster.LiveNodes()
	}
	code := http.StatusOK
	if s.draining.Load() {
		body["status"] = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// handleMetrics is GET /metrics: the Prometheus text exposition over the
// checker's, service's, and gateway's obs collectors. Everything those
// collectors hold is exported generically — a counter or distribution
// added anywhere in the system shows up here with no gateway change.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, "apichecker", s.ck.Obs(), s.svc.Obs(), s.col)
}

// jsonContent is every JSON answer's Content-Type; net/http copies it out
// and never writes it.
var jsonContent = []string{"application/json"}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header()["Content-Type"] = jsonContent
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}
