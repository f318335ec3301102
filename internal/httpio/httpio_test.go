package httpio

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// countingBody is a request body that counts the bytes read from it.
type countingBody struct {
	bytes.Reader
	read int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	b.read += n
	return n, err
}

func (*countingBody) Close() error { return nil }

// TestReadBody puts the declared length against the bound, the presize
// and the bytes that arrive. A declared length up to the presize is read
// into a pooled buffer of exactly that length, and no further (net/http
// ends such a body there; this body does not); one over the bound is
// refused with nothing read and the connection marked to close; a chunked
// body (declared -1) is read under the bound; a body shorter than it
// declares is an error.
func TestReadBody(t *testing.T) {
	const limit = 2 << 20
	big := bytes.Repeat([]byte("x"), limit)
	for _, tc := range []struct {
		name     string
		declared int64
		body     []byte
		tooLarge bool // an *http.MaxBytesError
		fails    bool // another error
		pooled   bool // read to exactly its declared length from the pool
	}{
		{name: "empty", declared: 0, body: nil, pooled: true},
		{name: "declared", declared: 5, body: []byte("hello"), pooled: true},
		{name: "declared at presize", declared: presize, body: big[:presize], pooled: true},
		{name: "declared past presize", declared: presize + 1, body: big[:presize+1]},
		{name: "declared at bound", declared: limit, body: big},
		{name: "declared over bound", declared: limit + 1, body: append(big, 'y'), tooLarge: true},
		{name: "chunked", declared: -1, body: []byte("hello")},
		{name: "chunked at bound", declared: -1, body: big},
		{name: "chunked over bound", declared: -1, body: append(big, 'y'), tooLarge: true},
		{name: "shorter than declared", declared: 6, body: []byte("hello"), fails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pool Pool
			body := &countingBody{}
			r := httptest.NewRequest(http.MethodPost, "/", nil)
			w := httptest.NewRecorder()
			sent := tc.body
			if tc.pooled {
				sent = append(sent[:len(sent):len(sent)], "past the declared length"...)
			}
			read := func() (*[]byte, error) {
				body.Reset(sent)
				body.read = 0
				r.Body, r.ContentLength = body, tc.declared
				return ReadBody(w, r, limit, &pool)
			}
			bp, err := read()
			switch {
			case tc.tooLarge:
				if !errors.As(err, new(*http.MaxBytesError)) || bp != nil {
					t.Fatalf("got %v, want an *http.MaxBytesError and no buffer", err)
				}
				if tc.declared > limit && (body.read != 0 || w.Header().Get("Connection") != "close") {
					t.Errorf("refused after reading %d bytes, Connection %q; want 0 and close", body.read, w.Header().Get("Connection"))
				}
				return
			case tc.fails:
				if err == nil || errors.As(err, new(*http.MaxBytesError)) || bp != nil {
					t.Fatalf("got %v, want a read error and no buffer", err)
				}
				return
			case err != nil:
				t.Fatal(err)
			}
			if !bytes.Equal(*bp, tc.body) || body.read != len(tc.body) {
				t.Fatalf("read %d bytes into a %d-byte body, want the %d of the body", body.read, len(*bp), len(tc.body))
			}
			pool.Put(bp)
			if !tc.pooled || tc.declared > 64<<10 || raceDetector {
				return
			}
			// Each read takes the buffer the last one put back.
			if n := testing.AllocsPerRun(20, func() {
				bp, err := read()
				if err != nil {
					t.Fatal(err)
				}
				pool.Put(bp)
			}); n != 0 {
				t.Errorf("%.2f allocations a read, want 0", n)
			}
		})
	}
}

// TestErrorMatchesEncodingJSON: the error envelope is, byte for byte, what
// encoding/json writes for {"error": msg} with HTML escaping off.
func TestErrorMatchesEncodingJSON(t *testing.T) {
	var all strings.Builder
	for c := range 0x80 {
		all.WriteByte(byte(c))
	}
	for _, msg := range []string{
		"",
		"unknown submission id",
		all.String(),
		"<script>&amp;</script>",
		"bad \xff byte, line \xe2\x80\xa8 and paragraph \xe2\x80\xa9 separators",
	} {
		w := httptest.NewRecorder()
		Error(w, http.StatusTeapot, msg)
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(map[string]string{"error": msg}); err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(w.Result().Body)
		if w.Code != http.StatusTeapot || w.Header().Get("Content-Type") != "application/json" || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("Error(%q): %d %q %q, want %d application/json %q", msg, w.Code, w.Header().Get("Content-Type"), got, http.StatusTeapot, want.Bytes())
		}
	}
}
