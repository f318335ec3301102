// Package wire is the one bounds-checked reader under every hand-written
// decoder in the repo: the dex and behaviour-blob codecs, the model
// artifact and the forest and linear codecs inside it, verdict-cache
// entries, claim frames, and the bodies of the intake journal's and the
// verdict-cache persist tier's frames. Those decoders read bytes that an
// untrusted developer, a disk or a peer chose, and the rule that keeps them
// from being talked into a huge allocation is written here once, in Count:
// never allocate from a declared count until it has been checked against
// the bytes that remain.
//
// A Reader's failure is sticky. The first one is latched, and the offset
// stays at the start of the read that failed: every later read returns zero
// and leaves it there, and Count returns 0. A
// decoder therefore reads a run of fields and checks Err before it
// allocates and at its end, not after every field — and a size it takes
// from Count is bounded by the input whether or not the reader has failed.
//
// All fixed-width integers are little-endian.
//
// Fields, with its Encoder and Decoder, is for a struct written as a run of
// fields: the struct lists its leaves once and both directions walk that
// list. The model artifact's config and selection sections are written so.
//
// AppendJSONString and AppendJSONFloat write JSON the way encoding/json
// does, for the HTTP bodies the gateway and the cluster coordinator build
// by hand.
package wire

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Reader reads fields off a byte slice it never reads past.
type Reader struct {
	// b is the input, cut back to off at the first failure so that every
	// later read fails its own bounds check and returns zero.
	b []byte
	// s, when non-empty, is the same bytes as b: String hands out
	// substrings of it instead of copies.
	s   string
	off int
	err error
}

// NewReader reads b. String returns copies, so nothing a decoder keeps
// aliases b; Bytes and Rest alias it.
func NewReader(b []byte) Reader { return Reader{b: b} }

// NewSubstringReader reads b after copying it once into a string, and
// String returns substrings of that one copy: one allocation for every
// string in the input, but any string kept keeps the whole copy alive.
func NewSubstringReader(b []byte) Reader { return Reader{b: b, s: string(b)} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Off returns the number of bytes read.
func (r *Reader) Off() int { return r.off }

// Len returns the number of bytes that remain; 0 once the reader has
// failed.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Fail latches err as the reader's failure unless it has already failed,
// and stops the reader. Decoders report what the bytes cannot say for
// themselves — an index out of range, a count over the decoder's own cap —
// through it, so that their first failure wins too.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = r.b[:r.off]
}

// short fails the reader with the one truncation shape.
func (r *Reader) short() { r.Fail(&truncatedError{off: r.off}) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.off >= len(r.b) {
		r.short()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.b)-r.off < 2 {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b)-r.off < 4 {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b)-r.off < 8 {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads a float64 as its IEEE 754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads a minimally encoded uvarint. An overlong form (a final zero
// group: a second spelling of a shorter encoding) and a value past 64 bits
// are failures, so an accepted input re-encodes to the same bytes.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.short()
		return 0
	case n < 0 || (n > 1 && r.b[r.off+n-1] == 0):
		r.Fail(fmt.Errorf("malformed uvarint at byte %d", r.off))
		return 0
	}
	r.off += n
	return v
}

// Count returns n — a count the caller has just read, in whatever width
// its format uses — once n elements of at least minBytesEach bytes each are
// known to fit in the bytes that remain, so the caller may allocate n of
// them. Otherwise it fails the reader with the truncation shape, naming
// what, and returns 0; it returns 0 too once the reader has failed. A
// decoder with a constant cap checks it first. minBytesEach must be at
// least 1.
func (r *Reader) Count(n uint64, what string, minBytesEach int) int {
	if n > uint64(len(r.b)-r.off)/uint64(minBytesEach) {
		r.Fail(&truncatedError{off: r.off, what: what, count: n})
		return 0
	}
	return int(n)
}

// Flags reads a flag byte; a bit outside mask is a failure.
func (r *Reader) Flags(mask uint8) uint8 {
	v := r.U8()
	if v&^mask != 0 {
		r.off--
		r.Fail(fmt.Errorf("reserved flag bits %#02x at byte %d", v&^mask, r.off))
		return 0
	}
	return v
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.off--
		r.Fail(fmt.Errorf("bool byte %d at byte %d", v, r.off))
	}
	return v == 1
}

// Bytes returns the next n bytes as a sub-slice of the input, capped so an
// append cannot reach the bytes after it.
func (r *Reader) Bytes(n int) []byte {
	if uint(n) > uint(len(r.b)-r.off) {
		r.short()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Rest returns every remaining byte as a sub-slice of the input.
func (r *Reader) Rest() []byte { return r.Bytes(r.Len()) }

// String reads the next n bytes as a string (see NewReader and
// NewSubstringReader for whether it is a copy).
func (r *Reader) String(n int) string {
	if uint(n) > uint(len(r.b)-r.off) {
		r.short()
		return ""
	}
	i := r.off
	r.off += n
	if r.s != "" {
		return r.s[i:r.off]
	}
	return string(r.b[i:r.off])
}

// End fails the reader unless every byte has been read.
func (r *Reader) End() {
	if n := len(r.b) - r.off; n > 0 {
		r.Fail(fmt.Errorf("trailing data: %d bytes after byte %d", n, r.off))
	}
}

// truncatedError is the one shape of running out of input: a read of more
// bytes than remain, or a declared count whose elements cannot fit in them
// (what names the count then).
type truncatedError struct {
	off   int // where the read, or the counted elements, would have started
	what  string
	count uint64
}

func (e *truncatedError) Error() string {
	if e.what == "" {
		return fmt.Sprintf("truncated input at byte %d: %v", e.off, io.ErrUnexpectedEOF)
	}
	return fmt.Sprintf("%s count %d exceeds the bytes that remain at byte %d: %v",
		e.what, e.count, e.off, io.ErrUnexpectedEOF)
}

func (e *truncatedError) Unwrap() error { return io.ErrUnexpectedEOF }

// AppendF64 appends v's IEEE 754 bits: what F64 reads.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString32 appends s after its length as a u32: what
// String(int(U32())) reads.
func AppendString32(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// AppendStringUvarint appends s after its length as a uvarint: what
// String(int(Uvarint())) reads.
func AppendStringUvarint(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Fields moves a struct's leaves one way: an *Encoder appends what each
// pointer holds, a Decoder stores what it reads through it. A type that
// lists its leaves once, over a Fields, gets its encoder and its decoder
// from that one list, so the two cannot drift apart. Int is written as a
// u64, I32 as a u32, Bool as one byte, String and Len as a u32 count.
type Fields interface {
	Int(*int)
	I32(*int32)
	I64(*int64)
	U8(*uint8)
	F64(*float64)
	Bool(*bool)
	String(*string)
	// Len moves a count of elements of at least minBytesEach encoded
	// bytes each; a Decoder checks it with Count.
	Len(n *int, what string, minBytesEach int)
}

// Slice moves *s over f: its length, then each element through each. A
// Decoder allocates the slice once Len has checked the count; an Encoder
// leaves it alone.
func Slice[T any](f Fields, s *[]T, what string, minBytesEach int, each func(*T)) {
	n := len(*s)
	f.Len(&n, what, minBytesEach)
	if n != len(*s) {
		*s = make([]T, n)
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

// Encoder is the append direction of Fields.
type Encoder struct{ B []byte }

func (e *Encoder) Int(v *int)       { e.B = binary.LittleEndian.AppendUint64(e.B, uint64(*v)) }
func (e *Encoder) I32(v *int32)     { e.B = binary.LittleEndian.AppendUint32(e.B, uint32(*v)) }
func (e *Encoder) I64(v *int64)     { e.B = binary.LittleEndian.AppendUint64(e.B, uint64(*v)) }
func (e *Encoder) U8(v *uint8)      { e.B = append(e.B, *v) }
func (e *Encoder) F64(v *float64)   { e.B = AppendF64(e.B, *v) }
func (e *Encoder) String(v *string) { e.B = AppendString32(e.B, *v) }

func (e *Encoder) Bool(v *bool) {
	b := byte(0)
	if *v {
		b = 1
	}
	e.B = append(e.B, b)
}

func (e *Encoder) Len(n *int, _ string, _ int) {
	e.B = binary.LittleEndian.AppendUint32(e.B, uint32(*n))
}

// Decoder is the read direction of Fields. A failure is left on R, and
// every field after it reads as zero.
type Decoder struct{ R *Reader }

func (d Decoder) Int(v *int)       { *v = int(d.R.U64()) }
func (d Decoder) I32(v *int32)     { *v = int32(d.R.U32()) }
func (d Decoder) I64(v *int64)     { *v = int64(d.R.U64()) }
func (d Decoder) U8(v *uint8)      { *v = d.R.U8() }
func (d Decoder) F64(v *float64)   { *v = d.R.F64() }
func (d Decoder) Bool(v *bool)     { *v = d.R.Bool() }
func (d Decoder) String(v *string) { *v = d.R.String(int(d.R.U32())) }

func (d Decoder) Len(n *int, what string, minBytesEach int) {
	*n = d.R.Count(uint64(d.R.U32()), what, minBytesEach)
}

// FirstRepeat returns the first i in 0..n-1 whose key(i) equals the key of
// an earlier index — where a scan that remembered every key it had passed
// would stop — or -1 when the n keys are distinct. Decoders use it to refuse
// a table that names one entry twice.
//
// Up to pairwiseMax keys it is that scan: each key is held to every earlier
// one, first by a fingerprint (its length and last two bytes, where names
// that differ mostly differ) and only on a match by its bytes, so a key
// costs at most pairwiseMax-1 comparisons and a hostile table still costs
// time linear in its bytes. Above that it sorts indices, O(n log n). Up to
// 64 keys it allocates nothing.
func FirstRepeat(n int, key func(i int) string) int {
	if n <= pairwiseMax {
		var seen [pairwiseMax]uint32
		for i := range n {
			k := key(i)
			f := fingerprint(k)
			for j, g := range seen[:i] {
				if g == f && key(j) == k {
					return i
				}
			}
			seen[i] = f
		}
		return -1
	}
	var buf [64]int32
	idx := buf[:0]
	if n > len(buf) {
		idx = make([]int32, 0, n)
	}
	for i := range n {
		idx = append(idx, int32(i))
	}
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Or(strings.Compare(key(int(a)), key(int(b))), cmp.Compare(a, b))
	})
	first := -1
	for k := 1; k < len(idx); k++ {
		// Sorted by key, then index: an index whose key its predecessor
		// shares repeats an earlier one, and the scan stops at the least.
		if i := int(idx[k]); (first < 0 || i < first) && key(i) == key(int(idx[k-1])) {
			first = i
		}
	}
	return first
}

// pairwiseMax is the most keys FirstRepeat compares pairwise. A generated
// program has 3 to 40 activities, 10 on average.
const pairwiseMax = 16

// fingerprint is k's length and last two bytes: equal keys have equal
// fingerprints.
func fingerprint(k string) uint32 {
	f := uint32(len(k)) << 16
	switch {
	case len(k) >= 2:
		f |= uint32(k[len(k)-2])<<8 | uint32(k[len(k)-1])
	case len(k) == 1:
		f |= uint32(k[0])
	}
	return f
}
