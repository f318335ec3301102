package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"apichecker/internal/ml"
)

// Compact verdict-cache entries.
//
// The cache holds up to millions of memoized verdicts, so each entry is a
// single flat []byte instead of a CachedVerdict pointer graph (three
// string headers, a slice header, and the GC scanning all of them per
// cycle). The layout is a fixed field sequence, little-endian, strings and
// the vector length-prefixed:
//
//	[0]      version byte (entryVersion)
//	package  uint32 len + bytes
//	version  uint64 (two's complement of the int)
//	gen      uint64
//	flags    byte (bit0 Malicious, bit1 FellBack, bit2 Tier == 1)
//	score    uint64 (IEEE 754 bits)
//	scan     uint64 (nanoseconds)
//	overall  uint64 (nanoseconds)
//	crashes  uint64
//	engine   uint32 len + bytes
//	invoked  uint64
//	vector   uint32 word count + 8 bytes per word
//
// The verdict's Digest is not in the entry: it is the key the entry is
// stored under, and whoever looks the entry up sets it from that key.
//
// Encoding copies out of the VetContext, decoding copies into caller-owned
// storage, so an entry never aliases pooled or per-submission memory: the
// []byte itself is immutable from the moment it is stored, which is also
// what lets the persistent tier write it to disk verbatim.
//
// Version 1 carried an MD5 identity after the version code and memoized
// emulations drawn from the math/rand streams; a v1 entry is ErrBadEntry,
// which is what keeps a persisted log from before the stream move from
// ever being served.
const entryVersion = 2

// ErrBadEntry marks a cache entry (typically read back from the persistent
// tier) that does not decode: wrong version, truncated, or inconsistent
// lengths. DecodeEntry returns it instead of ever panicking on corrupt
// bytes.
var ErrBadEntry = errors.New("pipeline: corrupt verdict-cache entry")

const (
	entryFlagMalicious = 1 << 0
	entryFlagFellBack  = 1 << 1
	// entryFlagTier1 marks a verdict answered by the static triage tier.
	entryFlagTier1 = 1 << 2
)

// EncodeEntry packs one verdict and its feature vector into a fresh flat
// buffer, sized exactly in one allocation.
func EncodeEntry(v *Verdict, x ml.Vector) []byte {
	n := 1 + // version
		4 + len(v.Package) +
		8 + // VersionCode
		8 + // Generation
		1 + // flags
		8 + 8 + 8 + // Score, ScanTime, OverallTime
		8 + // Crashes
		4 + len(v.Engine) +
		8 + // InvokedKeyAPIs
		4 + 8*len(x)
	dst := make([]byte, 0, n)
	dst = append(dst, entryVersion)
	dst = appendLenPrefixed(dst, v.Package)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v.VersionCode)))
	dst = binary.LittleEndian.AppendUint64(dst, v.Generation)
	var flags byte
	if v.Malicious {
		flags |= entryFlagMalicious
	}
	if v.FellBack {
		flags |= entryFlagFellBack
	}
	if v.Tier == 1 {
		flags |= entryFlagTier1
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Score))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ScanTime.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.OverallTime.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v.Crashes)))
	dst = appendLenPrefixed(dst, v.Engine)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v.InvokedKeyAPIs)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
	for _, w := range x {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func appendLenPrefixed(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// entryReader is a bounds-checked cursor over an encoded entry. Every read
// checks remaining length and latches failure instead of panicking, so a
// corrupt persisted record degrades to ErrBadEntry.
type entryReader struct {
	b   []byte
	off int
	bad bool
}

func (r *entryReader) take(n int) []byte {
	if r.bad || n < 0 || len(r.b)-r.off < n {
		r.bad = true
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *entryReader) u32() uint32 {
	b := r.take(4)
	if r.bad {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *entryReader) u64() uint64 {
	b := r.take(8)
	if r.bad {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *entryReader) str() string {
	n := r.u32()
	b := r.take(int(n))
	if r.bad {
		return ""
	}
	return string(b)
}

// DecodeEntry unpacks an encoded entry into v (fully overwritten; Digest
// is left empty for the caller to set from the entry's key) and a vector
// that reuses vec's storage when it is wide enough — the
// caller-owned-storage discipline: nothing in the result aliases e. It
// never panics on corrupt input; any structural problem returns
// ErrBadEntry.
func DecodeEntry(e []byte, v *Verdict, vec ml.Vector) (ml.Vector, error) {
	r := entryReader{b: e}
	ver := r.take(1)
	if r.bad || ver[0] != entryVersion {
		return nil, fmt.Errorf("%w: bad version byte", ErrBadEntry)
	}
	*v = Verdict{}
	v.Package = r.str()
	v.VersionCode = int(int64(r.u64()))
	v.Generation = r.u64()
	flags := r.take(1)
	if !r.bad {
		// Strict: unknown flag bits mark a corrupt (or future-version)
		// entry, and keep decode→encode canonical for everything accepted.
		if flags[0]&^(entryFlagMalicious|entryFlagFellBack|entryFlagTier1) != 0 {
			return nil, fmt.Errorf("%w: unknown flag bits 0x%02x", ErrBadEntry, flags[0])
		}
		v.Malicious = flags[0]&entryFlagMalicious != 0
		v.FellBack = flags[0]&entryFlagFellBack != 0
		v.Tier = 2
		if flags[0]&entryFlagTier1 != 0 {
			v.Tier = 1
		}
	}
	v.Score = math.Float64frombits(r.u64())
	v.ScanTime = time.Duration(int64(r.u64()))
	v.OverallTime = time.Duration(int64(r.u64()))
	v.Crashes = int(int64(r.u64()))
	v.Engine = r.str()
	v.InvokedKeyAPIs = int(int64(r.u64()))
	words := r.u32()
	if r.bad || int64(words) > int64(len(e))/8+1 {
		*v = Verdict{}
		return nil, fmt.Errorf("%w: truncated header or absurd vector length", ErrBadEntry)
	}
	if cap(vec) >= int(words) {
		vec = vec[:words]
	} else {
		vec = make(ml.Vector, words)
	}
	for i := range vec {
		vec[i] = r.u64()
	}
	if r.bad || r.off != len(e) {
		*v = Verdict{}
		return nil, fmt.Errorf("%w: length mismatch (decoded %d of %d bytes)", ErrBadEntry, r.off, len(e))
	}
	return vec, nil
}

// DecodeCachedVerdict is DecodeEntry into a fresh CachedVerdict — the
// convenience used by tests and offline tooling; the serving hit path
// decodes into pooled storage instead.
func DecodeCachedVerdict(e []byte) (CachedVerdict, error) {
	var cv CachedVerdict
	vec, err := DecodeEntry(e, &cv.Verdict, nil)
	if err != nil {
		return CachedVerdict{}, err
	}
	cv.Vector = vec
	return cv, nil
}
