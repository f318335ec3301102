package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"apichecker/internal/emulator"
	"apichecker/internal/ml"
	"apichecker/internal/wire"
)

// Compact verdict-cache entries.
//
// The cache holds up to millions of memoized verdicts, so each entry is a
// single flat []byte instead of a verdict-and-vector pointer graph (three
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
// Package through invoked is the verdict's layout (AppendVerdict,
// ReadVerdict), which the cluster's ack carries too.
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
	dst := AppendVerdict(append(make([]byte, 0, n), entryVersion), v)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
	for _, w := range x {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// AppendVerdict appends v in the entry's field layout, package through
// invoked: the one verdict codec, under the cache entry, the persist log
// and the cluster's ack. Digest is not encoded, and a Tier other than 1
// reads back as 2.
func AppendVerdict(dst []byte, v *Verdict) []byte {
	dst = wire.AppendString32(dst, v.Package)
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
	dst = wire.AppendF64(dst, v.Score)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ScanTime.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.OverallTime.Nanoseconds()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v.Crashes)))
	dst = wire.AppendString32(dst, v.Engine)
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(v.InvokedKeyAPIs)))
}

// ReadVerdict reads what AppendVerdict wrote into v, which it fully
// overwrites (Digest is left empty). A failure is latched on r, and v then
// holds whatever was read before it.
func ReadVerdict(r *wire.Reader, v *Verdict) {
	*v = Verdict{}
	v.Package = r.String(int(r.U32()))
	v.VersionCode = int(int64(r.U64()))
	v.Generation = r.U64()
	// Strict: unknown flag bits mark a corrupt (or future-version) entry,
	// and keep decode→encode canonical for everything accepted.
	flags := r.Flags(entryFlagMalicious | entryFlagFellBack | entryFlagTier1)
	v.Malicious = flags&entryFlagMalicious != 0
	v.FellBack = flags&entryFlagFellBack != 0
	v.Tier = 2
	if flags&entryFlagTier1 != 0 {
		v.Tier = 1
	}
	v.Score = r.F64()
	v.ScanTime = time.Duration(int64(r.U64()))
	v.OverallTime = time.Duration(int64(r.U64()))
	v.Crashes = int(int64(r.U64()))
	v.Engine = readEngine(r)
	v.InvokedKeyAPIs = int(int64(r.U64()))
}

// engineNames are the Engine values the vet path writes: the triage tier's
// and every emulator profile's.
var engineNames = [...]string{
	triageEngine,
	emulator.GoogleEmulator.Name,
	emulator.StockGoogleEmulator.Name,
	emulator.LightweightEmulator.Name,
	emulator.RealDevice.Name,
}

// readEngine reads a verdict's Engine, handing back the engineNames string
// it spells rather than a copy, so a decoded verdict costs no engine
// allocation; any other name is copied.
func readEngine(r *wire.Reader) string {
	b := r.Bytes(int(r.U32()))
	for _, name := range engineNames {
		if string(b) == name {
			return name
		}
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
	r := wire.NewReader(e)
	if r.U8() != entryVersion {
		return nil, fmt.Errorf("%w: bad version byte", ErrBadEntry)
	}
	ReadVerdict(&r, v)
	words := r.Count(uint64(r.U32()), "vector word", 8)
	if cap(vec) >= words {
		vec = vec[:words]
	} else {
		vec = make(ml.Vector, words)
	}
	for i := range vec {
		vec[i] = r.U64()
	}
	r.End()
	if err := r.Err(); err != nil {
		*v = Verdict{}
		return nil, fmt.Errorf("%w: %w", ErrBadEntry, err)
	}
	return vec, nil
}
