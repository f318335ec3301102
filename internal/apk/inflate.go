package apk

// An RFC 1951 (DEFLATE) decoder from an entry's compressed bytes straight
// into the arena slice its directory record declared. dst is the window,
// so back-references copy inside it: no history buffer, no reader around
// the body, nothing pooled and nothing allocated.
//
// The accept set is compress/flate's, which writes every archive (Build)
// and is the reference (FuzzInflateMatchesFlate): complete codes only, but
// for a single one-bit code; at most 286 literal/length and 30 distance
// codes; symbols 286/287 and distance codes 30/31 refused; no distance past
// the output so far; bytes after the final block ignored. (A block with no
// end-of-block code runs until the input or dst runs out.)

import (
	"errors"
	"io"
	"math/bits"
	"slices"

	"apichecker/internal/wire"
)

var (
	errCorrupt = errors.New("corrupt deflate stream")
	errOverrun = errors.New("deflate stream longer than its destination")
)

// A code's table is a root table, indexed by the next root bits of input
// (first bit lowest), then the subtables of the codes longer than root.
// maxLit and maxDist are zlib's bounds for complete codes with 9- and 6-bit
// roots; code-length codes are at most 7 bits, so need no subtables.
const (
	litRoot, distRoot, clRoot = 9, 6, 7
	maxLit, maxDist           = 852, 592
)

// An entry is val<<16 | op<<8 | n, n the code's length in bits.
const (
	opLiteral = 0x00 // val is the byte, or the code length
	opBase    = 0x10 // val is a length or distance base, the low 4 bits its extra bits
	opEnd     = 0x20 // end of block
	opBad     = 0x40 // a symbol flate refuses, or no code at all
	opLink    = 0x80 // val is a subtable's offset, the low 4 bits its index bits
)

var (
	litSyms   [288]uint32 // each symbol's entry, less the length
	distSyms  [32]uint32
	fixedLit  [maxLit]uint32
	fixedDist [maxDist]uint32
	clOrder   = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

func init() {
	for s, base := 0, uint32(3); s < len(litSyms); s++ {
		switch extra := max(0, (s-261)/4); {
		case s < 256:
			litSyms[s] = uint32(s) << 16
		case s == 256:
			litSyms[s] = opEnd << 8
		case s < 285:
			litSyms[s] = base<<16 | uint32(opBase|extra)<<8
			base += 1 << extra
		case s == 285:
			litSyms[s] = 258<<16 | opBase<<8
		default:
			litSyms[s] = opBad << 8
		}
	}
	for s, base := 0, uint32(1); s < 30; s++ {
		extra := max(0, s/2-1)
		distSyms[s] = base<<16 | uint32(opBase|extra)<<8
		base += 1 << extra
	}
	distSyms[30], distSyms[31] = opBad<<8, opBad<<8
	// The fixed code's lengths, RFC 1951 §3.2.6.
	lens := slices.Concat(slices.Repeat([]uint8{8}, 144), slices.Repeat([]uint8{9}, 112), slices.Repeat([]uint8{7}, 24), slices.Repeat([]uint8{8}, 8))
	build(fixedLit[:], lens, litRoot, litSyms[:])
	build(fixedDist[:], slices.Repeat([]uint8{5}, 32), distRoot, distSyms[:])
}

// build fills t with the table of the code whose symbol s is lens[s] bits
// long (0: no code), each entry syms[s] with the length added. It refuses
// what flate refuses: an over-subscribed code, or an incomplete one other
// than a single one-bit code. An empty code is a table of opBad.
func build(t []uint32, lens []uint8, root int, syms []uint32) bool {
	var count [16]uint16
	longest := 0
	for _, l := range lens {
		count[l]++
		longest = max(longest, int(l))
	}
	count[0] = 0
	left := 1 // of the code space, in units of a 15-bit code
	for l := 1; l < len(count); l++ {
		left = left<<1 - int(count[l])
	}
	if left != 0 && longest != 0 && (longest != 1 || count[1] != 1) {
		return false // over-subscribed, or incomplete but not one one-bit code
	}

	// Symbols in canonical order: by length, then by value.
	var offs [16]uint16
	for l := 1; l < len(offs)-1; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var order [288]uint16
	for s, l := range lens {
		if l != 0 {
			order[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// The root table grows by doubling: once t[:1<<l] holds every code of
	// up to l bits, copying it over the next 1<<l entries makes the table
	// for l+1 bits, less the codes of that length. Bit patterns no code
	// starts read t[0]'s first value.
	t[0] = opBad << 8
	mask, size := 1<<root-1, 1
	next, low, sub, start := 1<<root, -1, 0, 0
	code, l := 0, 0
	for _, s := range order[:offs[len(offs)-1]] {
		if sl := int(lens[s]); sl != l {
			code <<= sl - l
			l = sl
			for ; size < 1<<min(l, root); size *= 2 {
				copy(t[size:2*size], t[:size])
			}
		}
		rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
		e := syms[s] | uint32(l)
		switch {
		case l <= root:
			t[rev] = e
		case rev&mask != low:
			// A new subtable, grown until the codes left fill it.
			low, sub = rev&mask, l-root
			for room := 1 << sub; sub+root < longest; sub++ {
				if room -= int(count[sub+root]); room <= 0 {
					break
				}
				room <<= 1
			}
			if next+1<<sub > len(t) {
				return false
			}
			t[low] = uint32(next)<<16 | uint32(opLink|sub)<<8 | uint32(root)
			start, next = next, next+1<<sub
			fallthrough
		default:
			for i := rev >> root; i < 1<<sub; i += 1 << (l - root) {
				t[start+i] = e
			}
		}
		count[l]--
		code++
	}
	for ; size <= mask; size *= 2 {
		copy(t[size:2*size], t[:size])
	}
	return true
}

// inflate decodes the DEFLATE stream src into dst and returns how many
// bytes it wrote. errOverrun means the stream holds more than dst; a
// stream that ends early returns its length and no error.
func inflate(dst, src []byte) (int, error) {
	var lit [maxLit]uint32
	var dist [maxDist]uint32
	r := bitReader{src: src}
	out := 0
	for final := false; !final; {
		final = r.bits(1) == 1
		typ := r.bits(2)
		if r.nb < 0 {
			return out, io.ErrUnexpectedEOF
		}
		var err error
		switch typ {
		case 0:
			out, err = r.stored(dst, out)
		case 1:
			out, err = r.block(dst, out, &fixedLit, &fixedDist)
		case 2:
			if err = r.header(&lit, &dist); err == nil {
				out, err = r.block(dst, out, &lit, &dist)
			}
		default:
			err = errCorrupt
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// bitReader is the stream's position. b holds nb loaded bits not yet
// consumed, first bit lowest; bits past the end of src read as zeros, and
// nb below zero says some were consumed.
type bitReader struct {
	src []byte
	in  int // the next byte of src to load
	b   uint64
	nb  int
}

// refill loads whole bytes into b until it holds at least 56 bits or src
// is spent, eight at a time while eight remain: those that do not fit
// whole are loaded again next time.
func refill(src []byte, in int, b uint64, nb int) (int, uint64, int) {
	if in+8 <= len(src) {
		return in + (63-nb)>>3, b | le64(src[in:])<<(uint(nb)&63), nb | 56
	}
	for ; nb <= 56 && in < len(src); in, nb = in+1, nb+8 {
		b |= uint64(src[in]) << (uint(nb) & 63)
	}
	return in, b, nb
}

// le64 loads eight bytes little-endian; the compiler makes it one load.
func le64(p []byte) uint64 {
	_ = p[7]
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

// bits consumes the next n ≤ 16 bits.
func (r *bitReader) bits(n int) uint32 {
	if r.nb < n {
		r.in, r.b, r.nb = refill(r.src, r.in, r.b, r.nb)
	}
	v := uint32(r.b) & (1<<n - 1)
	r.b >>= n
	r.nb -= n
	return v
}

// stored copies a stored block: from the next byte boundary, LEN, its
// ones' complement NLEN, and LEN bytes.
func (r *bitReader) stored(dst []byte, out int) (int, error) {
	r.bits(r.nb & 7)
	at := r.in - r.nb>>3 // the whole bytes b holds are read again from src
	r.b, r.nb = 0, 0
	w := wire.NewReader(r.src[at:])
	n, nn := w.U16(), w.U16()
	if w.Err() == nil && nn != ^n {
		return out, errCorrupt
	}
	body := w.Bytes(min(int(n), w.Len())) // what there is, as flate copies it
	if len(body) > len(dst)-out {
		return out, errOverrun
	}
	out += copy(dst[out:], body)
	if w.Err() != nil || len(body) < int(n) {
		return out, io.ErrUnexpectedEOF
	}
	r.in = at + w.Off()
	return out, nil
}

// header reads a dynamic block's code lengths and builds its two tables.
func (r *bitReader) header(lit *[maxLit]uint32, dist *[maxDist]uint32) error {
	nlit, ndist, nclen := int(r.bits(5))+257, int(r.bits(5))+1, int(r.bits(4))+4
	if nlit > 286 || ndist > 30 {
		return errCorrupt
	}
	var lens [286 + 30]uint8
	for i := range nclen {
		lens[clOrder[i]] = uint8(r.bits(3))
	}
	var cl [1 << clRoot]uint32
	if !build(cl[:], lens[:len(clOrder)], clRoot, litSyms[:len(clOrder)]) {
		return errCorrupt
	}
	src, in, b, nb := r.src, r.in, r.b, r.nb
	for i, n := 0, nlit+ndist; i < n; {
		if nb < clRoot+7 {
			in, b, nb = refill(src, in, b, nb)
		}
		e := cl[b&(1<<clRoot-1)]
		if e&(opBad<<8) != 0 {
			return errCorrupt
		}
		b >>= e & 63
		nb -= int(e & 63)
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3–6 times, 17 and 18 a zero 3–10
		// and 11–138 times.
		extra := [3]uint{2, 3, 7}[sym-16]
		rep := [3]int{3, 3, 11}[sym-16] + int(b&(1<<extra-1))
		b >>= extra
		nb -= int(extra)
		var v uint8
		if sym == 16 && i == 0 || i+rep > n {
			return errCorrupt
		} else if sym == 16 {
			v = lens[i-1]
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	r.in, r.b, r.nb = in, b, nb
	switch {
	case r.nb < 0:
		return io.ErrUnexpectedEOF
	case !build(lit[:], lens[:nlit], litRoot, litSyms[:]),
		!build(dist[:], lens[nlit:nlit+ndist], distRoot, distSyms[:]):
		return errCorrupt
	}
	return nil
}

// block decodes one Huffman block's symbols into dst from out on. The bit
// buffer lives in locals. Runs of literals go to literals; this loop takes
// each symbol that ends a run, and its one refill covers the longest
// length/distance pair (15+5+15+13 bits).
func (r *bitReader) block(dst []byte, out int, lit *[maxLit]uint32, dist *[maxDist]uint32) (int, error) {
	src, in, b, nb := r.src, r.in, r.b, r.nb
	for {
		out, in, b, nb = literals(dst, out, src, in, b, nb, lit)
		if nb < 48 {
			if in, b, nb = refill(src, in, b, nb); nb < 0 {
				return out, io.ErrUnexpectedEOF
			}
		}
		e := lit[b&(1<<litRoot-1)]
		if e&(opLink<<8) != 0 {
			e = lit[e>>16+uint32(b>>litRoot)&(1<<(e>>8&15)-1)]
		}
		b >>= e & 63
		nb -= int(e & 63)
		if e&0xff00 == opLiteral<<8 {
			if uint(out) >= uint(len(dst)) {
				return out, errOverrun
			}
			dst[out] = byte(e >> 16)
			out++
			continue
		}
		if e&(opBase<<8) == 0 {
			if e&(opEnd<<8) == 0 {
				return out, errCorrupt
			}
			if nb < 0 {
				return out, io.ErrUnexpectedEOF
			}
			r.in, r.b, r.nb = in, b, nb
			return out, nil
		}
		extra := e >> 8 & 15
		length := int(e>>16) + int(b&(1<<extra-1))
		b >>= extra
		nb -= int(extra)

		e = dist[b&(1<<distRoot-1)]
		if e&(opLink<<8) != 0 {
			e = dist[e>>16+uint32(b>>distRoot)&(1<<(e>>8&15)-1)]
		}
		b >>= e & 63
		nb -= int(e & 63)
		if e&(opBase<<8) == 0 {
			return out, errCorrupt
		}
		extra = e >> 8 & 15
		d := int(e>>16) + int(b&(1<<extra-1))
		b >>= extra
		nb -= int(extra)

		switch {
		case d > out:
			return out, errCorrupt
		case length > len(dst)-out:
			return out, errOverrun
		case d >= length:
			copy(dst[out:out+length], dst[out-d:])
		default: // the copy overlaps its source: repeat the d bytes
			for w, end := out, out+length; w < end; {
				w += copy(dst[w:end], dst[out-d:w])
			}
		}
		out += length
	}
}

// literals decodes the literals whose codes sit whole in lit's root table
// into dst from out on, while dst has room, and returns where it stopped.
// A literal needs at most 15 bits, so it refills below that, with one
// 8-byte load; it stops at anything else (a longer code, a length, the end
// of block, a refused symbol), at a full dst, or where fewer than 8 input
// bytes are left to refill from, all for block to take. It is a leaf, so
// the bit buffer stays in registers.
func literals(dst []byte, out int, src []byte, in int, b uint64, nb int, lit *[maxLit]uint32) (int, int, uint64, int) {
	for out < len(dst) {
		if nb < 15 {
			if in+8 > len(src) {
				break
			}
			b |= le64(src[in:]) << (uint(nb) & 63)
			in += (63 - nb) >> 3
			nb |= 56
		}
		e := lit[b&(1<<litRoot-1)]
		if e&0xff00 != opLiteral<<8 {
			break
		}
		b >>= e & 63
		nb -= int(e & 63)
		dst[out] = byte(e >> 16)
		out++
	}
	return out, in, b, nb
}
