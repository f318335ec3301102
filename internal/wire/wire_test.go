package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// reads is one of every read a decoder makes, each with an input it reads
// whole.
var reads = []struct {
	name string
	data []byte
	read func(r *Reader)
}{
	{"U8", []byte{7}, func(r *Reader) { r.U8() }},
	{"U16", []byte{1, 2}, func(r *Reader) { r.U16() }},
	{"U32", []byte{1, 2, 3, 4}, func(r *Reader) { r.U32() }},
	{"U64", []byte{1, 2, 3, 4, 5, 6, 7, 8}, func(r *Reader) { r.U64() }},
	{"F64", AppendF64(nil, math.Pi), func(r *Reader) { r.F64() }},
	{"Uvarint", binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Uvarint() }},
	{"Flags", []byte{3}, func(r *Reader) { r.Flags(3) }},
	{"Bool", []byte{1}, func(r *Reader) { r.Bool() }},
	{"Bytes", []byte("abcde"), func(r *Reader) { r.Bytes(5) }},
	{"String", []byte("abcde"), func(r *Reader) { r.String(5) }},
	{"String32", AppendString32(nil, "abcde"), func(r *Reader) { r.String(int(r.U32())) }},
	{"StringUvarint", AppendStringUvarint(nil, string(make([]byte, 200))), func(r *Reader) { r.String(int(r.Uvarint())) }},
	{"Count", []byte{1, 2, 3, 4, 5, 6}, func(r *Reader) {
		for range r.Count(3, "pair", 2) {
			r.U16()
		}
	}},
}

// TestEveryTruncationIsTheOneShape: every read, cut short at every point
// and behind a one-byte prefix, fails with the truncation shape, wrapping
// io.ErrUnexpectedEOF and recording where the read stopped.
func TestEveryTruncationIsTheOneShape(t *testing.T) {
	for _, tc := range reads {
		for _, substrings := range []bool{false, true} {
			whole := append([]byte{0xEE}, tc.data...)
			r := newReader(whole, substrings)
			r.U8()
			tc.read(&r)
			if r.Err() != nil || r.Len() != 0 {
				t.Fatalf("%s: the whole input fails (%v) or is not used up (%d left)", tc.name, r.Err(), r.Len())
			}
			for cut := 1; cut < len(whole); cut++ {
				r := newReader(whole[:cut], substrings)
				r.U8()
				tc.read(&r)
				err := r.Err()
				var te *truncatedError
				if !errors.Is(err, io.ErrUnexpectedEOF) || !errors.As(err, &te) {
					t.Fatalf("%s cut to %d bytes: error %v, want the truncation shape", tc.name, cut, err)
				}
				if te.off != r.Off() || te.off < 1 {
					t.Fatalf("%s cut to %d bytes: error records byte %d, reader stopped at %d", tc.name, cut, te.off, r.Off())
				}
			}
		}
	}
}

func newReader(b []byte, substrings bool) Reader {
	if substrings {
		return NewSubstringReader(b)
	}
	return NewReader(b)
}

var sink []uint64

// TestLyingCountAllocatesNothing: a count lying by 2^30 is refused from the
// declaration alone, so what a decoder sizes from Count stays small.
func TestLyingCountAllocatesNothing(t *testing.T) {
	data := make([]byte, 64)
	least := ^uint64(0)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(data)
		sink = make([]uint64, r.Count(1<<30, "lie", 8))
		runtime.ReadMemStats(&after)
		if r.Err() == nil || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("Count accepted 2^30 elements in 64 bytes: %v", r.Err())
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 4<<10 {
		t.Errorf("a lying count allocated %d bytes, want < 4 KiB", least)
	}
	r := NewReader(data)
	if n := r.Count(8, "word", 8); n != 8 || r.Err() != nil {
		t.Fatalf("Count refused 8 words in 64 bytes: %d, %v", n, r.Err())
	}
	if n := r.Count(9, "word", 8); n != 0 || r.Err() == nil {
		t.Fatalf("Count accepted 9 words in 64 bytes: %d", n)
	}
}

// TestUvarintIsMinimal: overlong forms and values past 64 bits are refused,
// and neither is a truncation.
func TestUvarintIsMinimal(t *testing.T) {
	for _, ok := range [][]byte{{0}, {0x7F}, {0x80, 0x01}, binary.AppendUvarint(nil, math.MaxUint64)} {
		r := NewReader(ok)
		if v := r.Uvarint(); r.Err() != nil || r.Len() != 0 || !bytes.Equal(binary.AppendUvarint(nil, v), ok) {
			t.Errorf("% x: %d, %v", ok, v, r.Err())
		}
	}
	ten := bytes.Repeat([]byte{0xFF}, 9)
	for _, bad := range [][]byte{
		{0x80, 0x00},                                 // 0, overlong
		{0x81, 0x80, 0x00},                           // 1, overlong
		append(append([]byte{}, ten...), 2),          // ten bytes, past 64 bits
		append(append([]byte{}, ten...), 0xFF, 0x01), // eleven bytes
	} {
		r := NewReader(bad)
		if v := r.Uvarint(); v != 0 || r.Err() == nil || errors.Is(r.Err(), io.ErrUnexpectedEOF) || r.Off() != 0 {
			t.Errorf("% x: %d at %d, %v; want a non-truncation failure at 0", bad, v, r.Off(), r.Err())
		}
	}
}

// TestFailureIsSticky: the first failure wins, and every later read returns
// zero and leaves the offset where it was.
func TestFailureIsSticky(t *testing.T) {
	first := errors.New("first")
	data := bytes.Repeat([]byte{7}, 32)
	for name, fail := range map[string]func(r *Reader){
		"Fail":            func(r *Reader) { r.Fail(first) },
		"Flags":           func(r *Reader) { r.Flags(3) },
		"Bool":            func(r *Reader) { r.Bool() },
		"negative length": func(r *Reader) { r.Bytes(-1) },
		"truncated":       func(r *Reader) { r.Bytes(100) },
		"Count":           func(r *Reader) { r.Count(100, "x", 1) },
		"End":             func(r *Reader) { r.End() },
	} {
		r := NewSubstringReader(data)
		r.U16()
		fail(&r)
		err, off := r.Err(), r.Off()
		if err == nil {
			t.Fatalf("%s: no failure", name)
		}
		r.Fail(errors.New("second"))
		r.End()
		if r.U8() != 0 || r.U16() != 0 || r.U32() != 0 || r.U64() != 0 || r.F64() != 0 || r.Uvarint() != 0 ||
			r.Flags(0xFF) != 0 || r.Bool() || len(r.Bytes(1)) != 0 || len(r.Rest()) != 0 || r.String(1) != "" ||
			r.Count(1, "x", 1) != 0 || r.Len() != 0 {
			t.Errorf("%s: a read after the failure returned data", name)
		}
		if r.Err() != err || r.Off() != off {
			t.Errorf("%s: failure %v at %d became %v at %d", name, err, off, r.Err(), r.Off())
		}
	}
}

// TestStrings: a substring reader hands out pieces of one copy, a plain
// reader fresh copies; neither aliases the input.
func TestStrings(t *testing.T) {
	for _, substrings := range []bool{false, true} {
		data := []byte("keyvalue")
		r := newReader(data, substrings)
		k, v := r.String(3), r.String(5)
		data[0], data[3] = 'X', 'X'
		if k != "key" || v != "value" {
			t.Errorf("substrings %v: %q %q alias the input", substrings, k, v)
		}
	}
	r := NewReader([]byte("abc"))
	b := r.Bytes(1)
	if cap(b) != 1 {
		t.Errorf("Bytes hands out capacity %d past its length", cap(b))
	}
	r.End()
	if r.Err() == nil {
		t.Error("End accepted 2 unread bytes")
	}
}

// FuzzReader drives a random script of reads over random bytes and checks
// every result against encoding/binary and explicit length checks: the
// same value and offset while the input lasts, the first failure latched —
// with the truncation shape, at the reference's offset, exactly when bytes
// ran out — and zeros after it.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x80\x01abcdef"))
	f.Add([]byte{5, 5, 5, 12}, []byte{0x80, 0x00, 0xFF})
	f.Add([]byte{0x89, 48, 10, 40, 11}, bytes.Repeat([]byte{0x41}, 40))
	f.Fuzz(func(t *testing.T, script, data []byte) {
		r := newReader(data, len(script) > 0 && script[0]&0x80 != 0)
		off, failed := 0, false
		for i := 0; i < len(script); i++ {
			op, arg := script[i]%13, byte(0)
			if i+1 < len(script) {
				arg = script[i+1]
			}
			// A failed reader has no bytes left: the reference reads
			// nothing either, so every read it makes from here on is a
			// zero-length one or returns zero.
			rest := data[off:]
			if failed {
				rest = nil
			}
			// got is the reader's result and want the reference's; ok says
			// the reference read succeeds, n is what it consumes, and short
			// says a failure is running out of bytes.
			var got, want any
			ok, n, short := true, 0, true
			fixed := func(w int) bool {
				ok, n = len(rest) >= w, w
				return ok
			}
			switch op {
			case 0:
				got, want = r.U8(), uint8(0)
				if fixed(1) {
					want = rest[0]
				}
			case 1:
				got, want = r.U16(), uint16(0)
				if fixed(2) {
					want = binary.LittleEndian.Uint16(rest)
				}
			case 2:
				got, want = r.U32(), uint32(0)
				if fixed(4) {
					want = binary.LittleEndian.Uint32(rest)
				}
			case 3:
				got, want = r.U64(), uint64(0)
				if fixed(8) {
					want = binary.LittleEndian.Uint64(rest)
				}
			case 4:
				got, want = math.Float64bits(r.F64()), uint64(0)
				if fixed(8) {
					want = binary.LittleEndian.Uint64(rest)
				}
			case 5:
				got, want = r.Uvarint(), uint64(0)
				v, k := binary.Uvarint(rest)
				switch {
				case k == 0:
					ok = false
				case k < 0 || len(binary.AppendUvarint(nil, v)) != k:
					ok, short = false, false
				default:
					want, n = v, k
				}
			case 6:
				i++
				got, want = r.Flags(arg), uint8(0)
				if fixed(1) {
					if ok = rest[0]&^arg == 0; ok {
						want = rest[0]
					} else {
						short = false
					}
				}
			case 7:
				got, want = r.Bool(), false
				if fixed(1) {
					if ok = rest[0] <= 1; ok {
						want = rest[0] == 1
					} else {
						short = false
					}
				}
			case 8, 9:
				i++
				k := int(arg) - 8 // -8 … 247
				if op == 8 {
					got = string(r.Bytes(k))
				} else {
					got = r.String(k)
				}
				want = ""
				if ok = k >= 0 && fixed(k); ok {
					want = string(rest[:k])
				}
			case 10:
				i++
				cnt, each := uint64(arg)<<(arg%5*8), 1+int(arg%8)
				got, want = r.Count(cnt, "x", each), 0
				if ok = cnt <= uint64(len(rest)) && cnt*uint64(each) <= uint64(len(rest)); ok {
					want = int(cnt)
				}
			case 11:
				r.End()
				got, want = 0, 0
				if ok = len(rest) == 0; !ok {
					short = false
				}
			case 12:
				got, want, n = string(r.Rest()), string(rest), len(rest)
			}
			if got != want {
				t.Fatalf("op %d (%d) at byte %d: got %v, want %v", i, op, off, got, want)
			}
			switch {
			case ok:
				off += n
			case !failed:
				failed = true
				err := r.Err()
				var te *truncatedError
				if err == nil || short != errors.Is(err, io.ErrUnexpectedEOF) || (short && (!errors.As(err, &te) || te.off != off)) {
					t.Fatalf("op %d (%d) at byte %d: failure %v, want one (truncation: %v)", i, op, off, err, short)
				}
			}
			if r.Off() != off || (r.Err() != nil) != failed || (failed && r.Len() != 0) {
				t.Fatalf("op %d (%d): reader at byte %d (%d left, %v), reference at %d (failed: %v)",
					i, op, r.Off(), r.Len(), r.Err(), off, failed)
			}
		}
	})
}
