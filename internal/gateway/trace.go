// GET /v1/submissions/{id}/trace — a livelog-style Server-Sent Events
// stream of one submission's per-stage pipeline spans. Spans already
// emitted replay immediately in pipeline order; for an in-flight
// submission the stream then tails live spans as the obs sink routes
// them, and every stream terminates with one "done" event carrying the
// final submission resource. A completed submission therefore yields a
// pure replay — the client cannot tell (and needn't care) whether it
// subscribed before or after the vet ran.

package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"

	"apichecker/internal/obs"
)

// traceSpan is the JSON payload of one "span" SSE event.
type traceSpan struct {
	Seq   int64  `json:"seq"`
	Stage string `json:"stage"`
	// Pkg is the submission's package name, best effort.
	Pkg string `json:"pkg,omitempty"`
	// DurSeconds is the stage's virtual-clock duration in seconds.
	DurSeconds float64 `json:"dur_seconds"`
	// Note carries the stage-specific outcome detail (cache outcome,
	// engine name).
	Note  string `json:"note,omitempty"`
	Error string `json:"error,omitempty"`
}

// handleTrace streams the submission's span log as SSE.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown submission id"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "response writer does not support streaming"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	s.col.Counter("gw.trace.streams").Inc()

	replay, live, finished := rec.subscribe()
	if live != nil {
		defer rec.unsubscribe(live)
	}
	for _, ev := range replay {
		writeSSE(w, "span", spanOf(ev))
	}
	flusher.Flush()
	for !finished {
		select {
		case ev := <-live:
			writeSSE(w, "span", spanOf(ev))
			flusher.Flush()
		case <-rec.ticket.Done():
			// Every span was sent before the ticket settled: drain the
			// ones still buffered, then terminate.
			for len(live) > 0 {
				writeSSE(w, "span", spanOf(<-live))
			}
			finished = true
		case <-r.Context().Done():
			return
		}
	}
	st, _ := rec.status()
	writeSSE(w, "done", st)
	flusher.Flush()
}

// spanOf maps one obs span event to its SSE payload.
func spanOf(ev obs.Event) traceSpan {
	sp := traceSpan{
		Seq:        ev.Trace,
		Stage:      ev.Name,
		Pkg:        ev.Package,
		DurSeconds: ev.Dur.Seconds(),
		Note:       ev.Note,
	}
	if ev.Err != nil {
		sp.Error = ev.Err.Error()
	}
	return sp
}

// writeSSE writes one SSE frame ("event:" + single-line "data:" JSON).
func writeSSE(w http.ResponseWriter, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(`{"error":"marshal failure"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
