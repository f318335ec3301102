package behavior

import (
	"encoding/binary"
	"fmt"
	"math"

	"apichecker/internal/framework"
	"apichecker/internal/wire"
)

// blobMagic opens every assets/behavior.bin: "BHV" and the format version.
// There is one format and one reader: a blob under any other version (the
// gob stream that was version 1 included) fails the magic check.
const blobMagic = "BHV\x02"

// Program flag bits. Reserved bits must be zero, so that an accepted blob
// re-encodes to the same bytes.
const (
	flagSuppressOnEmulator = 1 << iota
	flagRequiresRealSensors
	flagPayload
	programFlagsMask = flagSuppressOnEmulator | flagRequiresRealSensors | flagPayload
)

// Activity flag bits.
const (
	flagReferenced = 1 << iota
	flagMaliciousPayload
	activityFlagsMask = flagReferenced | flagMaliciousPayload
)

// Smallest encodings of one element of each arena: a header total that
// needs more bytes than the blob has left is rejected before anything is
// allocated for it.
const (
	minActivityBytes = 1 + 1 + 8 + 1 + 1 + 1 // name length, flags, reach rate, three counts
	minRateBytes     = 1 + 8                 // api id, rate
	minIDBytes       = 1                     // one uvarint
	minStringBytes   = 1                     // uvarint length
)

// Encode serializes the program for embedding into an APK. Ground-truth
// fields (Label, Family, Category) are deliberately omitted. The layout
// (integers are minimal uvarints, floats are math.Float64bits little-
// endian, a string is its uvarint length and its bytes):
//
//	magic       "BHV\x02"
//	totals      activities, APIRates, send-intents — over the program's
//	            and the payload's activities together
//	flags       u8: 1 SuppressOnEmulator, 2 RequiresRealSensors, 4 has Payload
//	checks      u8 EmulatorChecks
//	package     string
//	version     uvarint
//	seed        u64 little-endian
//	crashBias   f64
//	activities  count, then per activity:
//	    name string, flags u8 (1 Referenced, 2 MaliciousPayload), reachRate f64,
//	    direct:      count, per rate: api id, rate f64
//	    reflection:  count, per rate: api id, rate f64
//	    sendIntents: count, intent ids
//	receivers   count, intent ids
//	permissions count, permission ids
//	nativeLibs  count, strings
//	payload     activities as above, present iff the flag is set
func (p *Program) Encode() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.encode(), nil
}

// encode is Encode of a program already validated.
func (p *Program) encode() []byte {
	var payload []ActivityBehavior
	if p.Payload != nil {
		payload = p.Payload.Activities
	}
	var nActs, nRates, nIntents, nameBytes int
	for _, acts := range [2][]ActivityBehavior{p.Activities, payload} {
		nActs += len(acts)
		for i := range acts {
			nRates += len(acts[i].Direct) + len(acts[i].Reflection)
			nIntents += len(acts[i].SendIntents)
			nameBytes += len(acts[i].Name)
		}
	}
	for _, lib := range p.NativeLibs {
		nameBytes += binary.MaxVarintLen32 + len(lib)
	}
	// An upper bound on the encoding, so the buffer is allocated once.
	size := 96 + len(p.PackageName) + nameBytes +
		nActs*(minActivityBytes+4*binary.MaxVarintLen32) +
		nRates*(binary.MaxVarintLen32+8) +
		(nIntents+len(p.ReceiverIntents)+len(p.Permissions))*binary.MaxVarintLen32

	b := make([]byte, 0, size)
	b = append(b, blobMagic...)
	b = binary.AppendUvarint(b, uint64(nActs))
	b = binary.AppendUvarint(b, uint64(nRates))
	b = binary.AppendUvarint(b, uint64(nIntents))
	var flags byte
	if p.SuppressOnEmulator {
		flags |= flagSuppressOnEmulator
	}
	if p.RequiresRealSensors {
		flags |= flagRequiresRealSensors
	}
	if p.Payload != nil {
		flags |= flagPayload
	}
	b = append(b, flags, p.EmulatorChecks)
	b = wire.AppendStringUvarint(b, p.PackageName)
	b = binary.AppendUvarint(b, uint64(p.Version))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.Seed))
	b = wire.AppendF64(b, p.CrashBias)
	b = appendActivities(b, p.Activities)
	b = binary.AppendUvarint(b, uint64(len(p.ReceiverIntents)))
	for _, id := range p.ReceiverIntents {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Permissions)))
	for _, id := range p.Permissions {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(p.NativeLibs)))
	for _, lib := range p.NativeLibs {
		b = wire.AppendStringUvarint(b, lib)
	}
	if p.Payload != nil {
		b = appendActivities(b, payload)
	}
	return b
}

func appendActivities(b []byte, acts []ActivityBehavior) []byte {
	b = binary.AppendUvarint(b, uint64(len(acts)))
	for i := range acts {
		a := &acts[i]
		b = wire.AppendStringUvarint(b, a.Name)
		var flags byte
		if a.Referenced {
			flags |= flagReferenced
		}
		if a.MaliciousPayload {
			flags |= flagMaliciousPayload
		}
		b = append(b, flags)
		b = wire.AppendF64(b, a.ReachRate)
		for _, rates := range [2][]APIRate{a.Direct, a.Reflection} {
			b = binary.AppendUvarint(b, uint64(len(rates)))
			for _, r := range rates {
				b = binary.AppendUvarint(b, uint64(r.API))
				b = wire.AppendF64(b, r.Rate)
			}
		}
		b = binary.AppendUvarint(b, uint64(len(a.SendIntents)))
		for _, id := range a.SendIntents {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	return b
}

// Decode parses a serialized program. The returned program has zero-valued
// ground-truth fields.
//
// The blob is copied once into a string and every name in the result is a
// substring of that copy (wire.NewSubstringReader); the activities,
// APIRates and send-intents of the whole program live in three arenas,
// each sized at the total the header declares — only after wire's Count has
// checked that total against the bytes that remain — and handed out as
// capped sub-slices. Empty slices decode to nil. Anything Encode would not
// have written (an overlong uvarint, a reserved flag bit, a total the body
// does not use up, trailing bytes) is an error, so an accepted blob
// re-encodes to the same bytes.
func Decode(data []byte) (*Program, error) { return new(Decoder).Decode(data) }

// Decoder is Decode with storage kept from one blob to the next: the
// Program it returns, its payload, the three arenas and the arrays of its
// other lists. Once they have grown to the blobs it sees, a decode
// allocates only the copy of the blob that every name is a substring of.
// The returned program is valid until the next Decode. The zero value is
// ready to use.
type Decoder struct {
	p       Program
	payload Payload
	arenas  arenas

	receivers   []framework.IntentID
	permissions []framework.PermissionID
	nativeLibs  []string
}

// Decode is the package's Decode into d's storage.
func (d *Decoder) Decode(data []byte) (*Program, error) {
	if len(data) < len(blobMagic) || string(data[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("behavior: decode: not a version 2 behaviour blob: starts %q, want %q",
			data[:min(len(data), len(blobMagic))], blobMagic)
	}
	r := wire.NewSubstringReader(data)
	r.Bytes(len(blobMagic))
	ar := &d.arenas
	ar.acts = grow(ar.acts, r.Count(r.Uvarint(), "activity total", minActivityBytes))
	ar.rates = grow(ar.rates, r.Count(r.Uvarint(), "rate total", minRateBytes))
	ar.intents = grow(ar.intents, r.Count(r.Uvarint(), "send-intent total", minIDBytes))
	rest := *ar

	p := &d.p
	*p = Program{}
	flags := r.Flags(programFlagsMask)
	p.SuppressOnEmulator = flags&flagSuppressOnEmulator != 0
	p.RequiresRealSensors = flags&flagRequiresRealSensors != 0
	p.EmulatorChecks = r.U8()
	p.PackageName = r.String(int(r.Uvarint()))
	version := r.Uvarint()
	if version > math.MaxInt {
		r.Fail(fmt.Errorf("version %d out of range", version))
	}
	p.Version = int(version)
	p.Seed = int64(r.U64())
	p.CrashBias = r.F64()
	p.Activities = rest.activities(&r)
	p.ReceiverIntents = ids(&r, &d.receivers, "receiver intent")
	p.Permissions = ids(&r, &d.permissions, "permission")
	if n := r.Count(r.Uvarint(), "native lib", minStringBytes); n > 0 {
		d.nativeLibs = grow(d.nativeLibs, n)
		p.NativeLibs = d.nativeLibs[:n:n]
		for i := range p.NativeLibs {
			p.NativeLibs[i] = r.String(int(r.Uvarint()))
		}
	}
	if flags&flagPayload != 0 {
		d.payload = Payload{Activities: rest.activities(&r)}
		p.Payload = &d.payload
	}
	if len(rest.acts) != 0 || len(rest.rates) != 0 || len(rest.intents) != 0 {
		r.Fail(fmt.Errorf("header totals exceed the body by %d activities, %d rates, %d send-intents",
			len(rest.acts), len(rest.rates), len(rest.intents)))
	}
	r.End()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("behavior: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// grow returns s resliced to n elements, reallocated when its capacity is
// short, and keeps the capacity for the next blob: a slice handed out of it
// is capped at n. The caller overwrites every element.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// id reads one API, intent or permission id.
func id(r *wire.Reader) int32 {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail(fmt.Errorf("id %d out of range", v))
	}
	return int32(v)
}

// ids reads a counted id list into *array, grown to fit, and returns the
// list (nil when empty).
func ids[T ~int32](r *wire.Reader, array *[]T, what string) []T {
	n := r.Count(r.Uvarint(), what, minIDBytes)
	if n == 0 {
		return nil
	}
	*array = grow(*array, n)
	out := (*array)[:n:n]
	for i := range out {
		out[i] = T(id(r))
	}
	return out
}

// arenas holds the three backing arrays a decode carves the activities,
// rates and send-intents from; a copy's slices shrink as they are carved.
type arenas struct {
	acts    []ActivityBehavior
	rates   []APIRate
	intents []framework.IntentID
}

// take cuts the next n elements off an arena, capped so an append by the
// caller cannot reach the neighbouring slice; nil when n is zero.
func take[T any](r *wire.Reader, arena *[]T, n int, what string) []T {
	if n > len(*arena) {
		r.Fail(fmt.Errorf("more %s than the header total", what))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return out
}

// activities reads one counted activity list out of the arenas.
func (ar *arenas) activities(r *wire.Reader) []ActivityBehavior {
	acts := take(r, &ar.acts, r.Count(r.Uvarint(), "activity", minActivityBytes), "activities")
	for i := range acts {
		a := &acts[i]
		a.Name = r.String(int(r.Uvarint()))
		flags := r.Flags(activityFlagsMask)
		a.Referenced = flags&flagReferenced != 0
		a.MaliciousPayload = flags&flagMaliciousPayload != 0
		a.ReachRate = r.F64()
		a.Direct = ar.apiRates(r)
		a.Reflection = ar.apiRates(r)
		a.SendIntents = take(r, &ar.intents, r.Count(r.Uvarint(), "send-intent", minIDBytes), "send-intents")
		for j := range a.SendIntents {
			a.SendIntents[j] = framework.IntentID(id(r))
		}
	}
	return acts
}

func (ar *arenas) apiRates(r *wire.Reader) []APIRate {
	rates := take(r, &ar.rates, r.Count(r.Uvarint(), "rate", minRateBytes), "rates")
	for i := range rates {
		rates[i] = APIRate{API: framework.APIID(id(r)), Rate: r.F64()}
	}
	return rates
}
