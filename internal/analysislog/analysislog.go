// Package analysislog serializes per-app dynamic-analysis records — the
// "analysis logs" the paper promises to release alongside the key-API list.
//
// One record captures everything a single vetting run observed: app
// identity, the tracked-API invocations with counts and sampled
// parameters, sent intents, reached activities, coverage, and timing. The
// format is JSON Lines: one self-contained record per line, so multi-
// million-app logs stream and grep cleanly.
package analysislog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"apichecker/internal/emulator"
	"apichecker/internal/framework"
)

// FormatVersion guards record compatibility. Version 1 identified the app
// by "md5"; version 2 carries the content digest as "sha256".
const FormatVersion = 2

// Invocation is one tracked API's aggregate.
type Invocation struct {
	API    string   `json:"api"`
	Count  uint64   `json:"count"`
	Params []string `json:"params,omitempty"`
}

// Record is one app's analysis log entry.
type Record struct {
	Version int `json:"v"`

	Package     string `json:"package"`
	VersionCode int    `json:"version_code"`
	SHA256      string `json:"sha256,omitempty"`

	Engine   string  `json:"engine"`
	Events   int     `json:"events"`
	RAC      float64 `json:"rac"`
	FellBack bool    `json:"fell_back,omitempty"`
	Crashed  int     `json:"crashed,omitempty"`

	ScanMillis       int64  `json:"scan_ms"`
	TotalInvocations uint64 `json:"total_invocations"`
	Intercepted      uint64 `json:"intercepted"`

	Invocations []Invocation `json:"invocations,omitempty"`
	SentIntents []string     `json:"sent_intents,omitempty"`
	Activities  []string     `json:"activities,omitempty"`
}

// FromResult builds a record from one emulation result.
func FromResult(pkg string, versionCode int, digest string, res *emulator.Result, u *framework.Universe) *Record {
	rec := &Record{
		Version:          FormatVersion,
		Package:          pkg,
		VersionCode:      versionCode,
		SHA256:           digest,
		Engine:           res.Profile,
		Events:           res.Events,
		RAC:              res.RAC,
		FellBack:         res.FellBack,
		Crashed:          res.Crashed,
		ScanMillis:       res.VirtualTime.Milliseconds(),
		TotalInvocations: res.Log.TotalInvocations,
		Intercepted:      res.Log.Intercepted,
		Activities:       append([]string(nil), res.Log.ReachedActivities...),
	}
	invs := res.Log.Invocations()
	for i := range invs {
		inv := &invs[i]
		rec.Invocations = append(rec.Invocations, Invocation{
			API:    u.API(inv.API).Name,
			Count:  inv.Count,
			Params: res.Log.Params(inv),
		})
	}
	for _, id := range res.Log.SentIntents() {
		rec.SentIntents = append(rec.SentIntents, u.Intent(id).Name)
	}
	return rec
}

// ScanTime returns the scan duration.
func (r *Record) ScanTime() time.Duration { return time.Duration(r.ScanMillis) * time.Millisecond }

// Writer appends records to a JSONL stream.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewWriter wraps an io.Writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record.
func (w *Writer) Write(rec *Record) error {
	if rec.Version == 0 {
		rec.Version = FormatVersion
	}
	if err := w.enc.Encode(rec); err != nil {
		return fmt.Errorf("analysislog: write: %w", err)
	}
	w.n++
	return nil
}

// Count returns records written.
func (w *Writer) Count() int { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams records from a JSONL stream.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps an io.Reader.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{sc: sc}
}

// Next returns the next record, or io.EOF.
func (r *Reader) Next() (*Record, error) {
	for r.sc.Scan() {
		r.line++
		line := r.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("analysislog: line %d: %w", r.line, err)
		}
		if rec.Version != FormatVersion {
			return nil, fmt.Errorf("analysislog: line %d: format version %d, want %d",
				r.line, rec.Version, FormatVersion)
		}
		if rec.Package == "" {
			return nil, fmt.Errorf("analysislog: line %d: record without package", r.line)
		}
		return &rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return nil, fmt.Errorf("analysislog: %w", err)
	}
	return nil, io.EOF
}

// ReadAll drains a stream.
func ReadAll(rd io.Reader) ([]*Record, error) {
	r := NewReader(rd)
	var out []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
