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
	"math"
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
	"apichecker/internal/httpio"
	"apichecker/internal/obs"
	"apichecker/internal/pipeline"
	"apichecker/internal/vetsvc"
	"apichecker/internal/wire"
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

	// Cluster, when set, mounts the vet-cluster coordinator's one route,
	// the claim stream a worker lane upgrades to (claims, acks, nacks,
	// heartbeats and model pulls are frames on it), on this gateway's mux
	// and folds its fleet view into /healthz. The concrete type is
	// *cluster.Coordinator; the interface keeps the gateway ignorant of
	// the cluster package (cluster sits below the gateway in the import
	// graph, never the reverse).
	Cluster ClusterCoordinator
}

// ClusterCoordinator is the slice of the vet-cluster coordinator the
// gateway needs: route registration, the live-fleet gauge and each live
// node's held claims.
type ClusterCoordinator interface {
	Mount(mux *http.ServeMux)
	LiveNodes() int
	HeldClaims() map[string]int
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

	// regMu guards the record index, the eviction order, and the setting
	// of a record's ticket. Nothing that emits an obs event runs under it
	// (Submit is called outside it), so a sink may call back into the
	// gateway.
	regMu sync.RWMutex
	byID  map[string]*record
	order []*record

	draining atomic.Bool

	httpMu   sync.Mutex
	httpSrv  *http.Server
	listener net.Listener
}

// record indexes one submission: the service's ticket, which holds its
// state, seq, verdict and completion (the gateway keeps no copy of them),
// plus the span log and any live trace subscribers. It is the
// submission's Trace sink, so the pipeline hands it its own spans. Its
// ticket is set under regMu when it enters byID, so every reader that
// finds it by id finds the ticket.
type record struct {
	id     string
	ticket *vetsvc.Ticket

	mu    sync.Mutex
	spans []obs.Event
	subs  []chan obs.Event
	// spanBuf holds the first spans inline: all an admission hit has.
	spanBuf [2]obs.Event
}

// New builds a gateway over a running vetting service. Each submission it
// admits carries its record as the Submission's Trace, which feeds the
// submission's pipeline spans to its trace stream.
func New(svc *vetsvc.Service, cfg Config) *Server {
	s := &Server{
		cfg:  cfg.withDefaults(),
		svc:  svc,
		ck:   svc.Checker(),
		col:  obs.NewCollector(),
		byID: make(map[string]*record),
	}
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

// Emit implements obs.Sink for the submission's Trace: it appends one span
// to the record's log and pushes it to live trace subscribers
// (non-blocking: a stalled subscriber misses events rather than stalling
// the pipeline). Called synchronously from the vetting goroutine.
func (r *record) Emit(ev obs.Event) {
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

// status snapshots the record as its JSON resource plus the HTTP status
// code the snapshot maps to (202 in flight; 200 done; typed failures per
// the backpressure table: 504 deadline, 503 drain, 422 bad archive, 500
// otherwise).
func (r *record) status() (SubmissionStatus, int) {
	st := SubmissionStatus{ID: r.id, Seq: r.ticket.Seq(), Status: r.ticket.State()}
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

// appendStatus appends st as its JSON resource: the bytes json.Encoder
// writes for it with HTML escaping off, trailing newline included. Like
// the Encoder, it writes nothing for a verdict whose score has no JSON form
// (NaN or an infinity).
func appendStatus(b []byte, st *SubmissionStatus) []byte {
	start := len(b)
	b = wire.AppendJSONString(append(b, `{"id":`...), st.ID)
	b = strconv.AppendInt(append(b, `,"seq":`...), st.Seq, 10)
	b = wire.AppendJSONString(append(b, `,"status":`...), st.Status)
	if st.Outcome != "" {
		b = wire.AppendJSONString(append(b, `,"outcome":`...), st.Outcome)
	}
	if v := st.Verdict; v != nil {
		if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) {
			return b[:start]
		}
		b = wire.AppendJSONString(append(b, `,"verdict":{"Package":`...), v.Package)
		b = strconv.AppendInt(append(b, `,"VersionCode":`...), int64(v.VersionCode), 10)
		b = wire.AppendJSONString(append(b, `,"Digest":`...), v.Digest)
		b = strconv.AppendUint(append(b, `,"Generation":`...), v.Generation, 10)
		b = strconv.AppendBool(append(b, `,"Malicious":`...), v.Malicious)
		b = wire.AppendJSONFloat(append(b, `,"Score":`...), v.Score)
		b = strconv.AppendInt(append(b, `,"Tier":`...), int64(v.Tier), 10)
		b = strconv.AppendInt(append(b, `,"ScanTime":`...), int64(v.ScanTime), 10)
		b = strconv.AppendInt(append(b, `,"OverallTime":`...), int64(v.OverallTime), 10)
		b = strconv.AppendBool(append(b, `,"FellBack":`...), v.FellBack)
		b = strconv.AppendInt(append(b, `,"Crashes":`...), int64(v.Crashes), 10)
		b = wire.AppendJSONString(append(b, `,"Engine":`...), v.Engine)
		b = strconv.AppendInt(append(b, `,"InvokedKeyAPIs":`...), int64(v.InvokedKeyAPIs), 10)
		b = append(b, '}')
	}
	if st.Error != "" {
		b = wire.AppendJSONString(append(b, `,"error":`...), st.Error)
	}
	if st.Stage != "" {
		b = wire.AppendJSONString(append(b, `,"stage":`...), st.Stage)
	}
	return append(b, "}\n"...)
}

// uploads recycles upload buffers. The handler owns a buffer until it
// hands the bytes to the service; it puts the buffer back only when the
// service says it kept nothing of them (an admission hit), or when the
// upload joined an existing record and never reached the service. A
// queued submission's buffer is the queue's and goes to the collector.
var uploads httpio.Pool

// handleSubmit is POST /v1/submissions: read the archive (bounded),
// digest it, admit it to the vetting service (or join the existing
// record for these bytes), and answer with the submission resource.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.col.Counter("gw.rejected.draining").Inc()
		httpio.Error(w, http.StatusServiceUnavailable, vetsvc.ErrDraining.Error())
		return
	}
	wait, ok := parseWait(w, r)
	if !ok {
		return
	}
	buf, err := httpio.ReadBody(w, r, s.cfg.MaxUploadBytes, &uploads)
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			s.col.Counter("gw.rejected.oversize").Inc()
			httpio.Error(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("archive exceeds the %d-byte upload bound", s.cfg.MaxUploadBytes))
			return
		}
		httpio.Error(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	data := *buf
	// Cheap wire gate: a submission that is not even a zip container is
	// rejected synchronously; the apk package's decoded-size (zip-bomb)
	// gate and full validation run in the pipeline's decode stage.
	if len(data) < 4 || data[0] != 'P' || data[1] != 'K' {
		s.col.Counter("gw.rejected.notzip").Inc()
		httpio.Error(w, http.StatusBadRequest, "request body is not a zip archive")
		return
	}
	id := apk.Digest(data)

	rec, rawFree, err := s.admit(id, data)
	if rawFree {
		uploads.Put(buf)
	}
	if err != nil {
		code := admitErrorCode(err)
		switch code {
		case http.StatusTooManyRequests:
			s.col.Counter("gw.rejected.backpressure").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		case http.StatusServiceUnavailable:
			s.col.Counter("gw.rejected.draining").Inc()
		}
		httpio.Error(w, code, err.Error())
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
// only the join check; the service's Submit runs outside it, reserves the
// seq, and has publish put the record in byID with its ticket before
// anything can settle it, so a reader never sees a record without one.
// The record rides the submission as its Trace, so every span of the vet
// reaches it. rawFree reports that nothing kept data: the upload joined an
// existing record, or the service answered it at admission.
func (s *Server) admit(id string, data []byte) (rec *record, rawFree bool, err error) {
	if rec = s.lookup(id); rec != nil {
		// Byte-identical resubmission: same resource, no new vet — the
		// digest is the submission ID (and the verdict-cache key).
		s.col.Counter("gw.submissions.joined").Inc()
		return rec, true, nil
	}
	rec = &record{id: id}
	rec.spans = rec.spanBuf[:0]

	sub := core.Submission{Raw: data, Digest: id, Trace: rec}
	_, rawFree, err = s.svc.SubmitPublish(context.Background(), sub, func(t *vetsvc.Ticket) { s.publish(rec, t) })
	if err != nil {
		s.unindex(rec)
		return nil, false, err
	}
	s.col.Counter("gw.submissions.accepted").Inc()
	return rec, rawFree, nil
}

// publish sets the record's ticket and indexes it by id. A concurrent
// identical POST may have published first: then this record answers its
// own request from its own ticket and leaves the index to the winner.
func (s *Server) publish(rec *record, t *vetsvc.Ticket) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	rec.ticket = t
	if _, ok := s.byID[rec.id]; ok {
		return
	}
	s.byID[rec.id] = rec
	s.order = append(s.order, rec)
	s.evictLocked()
}

// unindex removes a record whose admission failed from the index.
func (s *Server) unindex(rec *record) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
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
// first; in-flight records are never evicted (they are bounded by the
// service queue anyway). Caller holds regMu.
func (s *Server) evictLocked() {
	for len(s.byID) > s.cfg.MaxRecords {
		evicted := false
		for i, rec := range s.order {
			if rec.settled() {
				s.order = append(s.order[:i], s.order[i+1:]...)
				delete(s.byID, rec.id)
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
		httpio.Error(w, http.StatusBadRequest, "wait must be a non-negative Go duration (e.g. 30s)")
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
	httpio.WriteJSON(w, code, func(b []byte) []byte { return appendStatus(b, &st) })
}

// handlePoll is GET /v1/submissions/{id} (+ the blocking ?wait= form).
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	wait, ok := parseWait(w, r)
	if !ok {
		return
	}
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		httpio.Error(w, http.StatusNotFound, "unknown submission id")
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
// gateway fronts a vet cluster — the live worker-node count and, by node,
// the claims its streams hold); a draining gateway answers 503 so load
// balancers stop routing to it.
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
		body["held"] = s.cfg.Cluster.HeldClaims()
	}
	code := http.StatusOK
	if s.draining.Load() {
		body["status"] = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header()["Content-Type"] = httpio.JSON
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}

// handleMetrics is GET /metrics: the Prometheus text exposition over the
// checker's, service's, and gateway's obs collectors. Everything those
// collectors hold is exported generically — a counter or distribution
// added anywhere in the system shows up here with no gateway change.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, "apichecker", s.ck.Obs(), s.svc.Obs(), s.col)
}
