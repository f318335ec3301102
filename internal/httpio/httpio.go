// Package httpio is the HTTP edge the gateway and the cluster coordinator
// share: a request body read whole under a bound into a pooled buffer, the
// pool, and JSON answers written from a pooled buffer, the {"error": msg}
// envelope among them.
package httpio

import (
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"apichecker/internal/wire"
)

// presize is the largest declared length a body buffer is sized from up
// front (io.ReadAll takes nine doublings to reach a 7.5 KB archive). Past
// it, and for a chunked body, the buffer grows with the bytes that arrive:
// a client that declares the bound and sends nothing costs a megabyte.
const presize = 1 << 20

// Pool recycles the byte buffers of one role (uploads; control bodies and
// frame headers; answers), each role its own Pool, so a small buffer one put
// back is never grown by another's larger read. The zero value is ready.
type Pool struct {
	pool sync.Pool

	// Poison, when set (tests only), scribbles over every buffer put back,
	// so a reader still holding one shows it.
	Poison atomic.Bool
}

// Get returns an empty buffer, or one holding its last user's bytes.
func (p *Pool) Get() *[]byte {
	if bp, ok := p.pool.Get().(*[]byte); ok {
		return bp
	}
	return new([]byte)
}

// Put gives bp back, unless it has grown past 64 KiB.
func (p *Pool) Put(bp *[]byte) {
	if cap(*bp) > 64<<10 {
		return
	}
	if p.Poison.Load() {
		for i := range *bp {
			(*bp)[i] = 0xA5
		}
	}
	*bp = (*bp)[:0]
	p.pool.Put(bp)
}

// ReadBody reads the request body whole, at most limit bytes, into a
// buffer from pool that is the caller's until it puts it back. A declared
// length over limit is refused before a byte is read, and the answer
// closes the connection. One up to presize is read into a buffer of
// exactly that length (net/http ends the body there); a longer or chunked
// body grows with the bytes that arrive. Past limit the error is an
// *http.MaxBytesError; a body shorter than declared is another error.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, pool *Pool) (*[]byte, error) {
	n := r.ContentLength
	if n > limit {
		w.Header().Set("Connection", "close")
		return nil, &http.MaxBytesError{Limit: limit}
	}
	bp, err := pool.Get(), error(nil)
	if n >= 0 && n <= presize {
		*bp = slices.Grow((*bp)[:0], int(n))[:n]
		_, err = io.ReadFull(r.Body, *bp)
	} else {
		*bp, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err != nil {
		return nil, err
	}
	// Closed once read to its end, the body is not drained again when the
	// answer starts.
	r.Body.Close()
	return bp, nil
}

// Header values set on every answer of their kind; net/http copies them
// out and never writes them.
var (
	JSON        = []string{"application/json"}
	OctetStream = []string{"application/octet-stream"}
)

// answers recycles JSON answer bodies.
var answers Pool

// WriteJSON writes one JSON answer whose body appendBody appends to a
// pooled buffer.
func WriteJSON(w http.ResponseWriter, code int, appendBody func([]byte) []byte) {
	bp := answers.Get()
	*bp = appendBody((*bp)[:0])
	w.Header()["Content-Type"] = JSON
	w.WriteHeader(code)
	w.Write(*bp)
	answers.Put(bp)
}

// Error writes the JSON error envelope {"error": msg}, byte for byte what
// json.Encoder writes for it with HTML escaping off.
func Error(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, func(b []byte) []byte {
		return append(wire.AppendJSONString(append(b, `{"error":`...), msg), "}\n"...)
	})
}
