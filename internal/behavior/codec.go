package behavior

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"apichecker/internal/framework"
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
	b = appendString(b, p.PackageName)
	b = binary.AppendUvarint(b, uint64(p.Version))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.Seed))
	b = appendFloat(b, p.CrashBias)
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
		b = appendString(b, lib)
	}
	if p.Payload != nil {
		b = appendActivities(b, payload)
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendActivities(b []byte, acts []ActivityBehavior) []byte {
	b = binary.AppendUvarint(b, uint64(len(acts)))
	for i := range acts {
		a := &acts[i]
		b = appendString(b, a.Name)
		var flags byte
		if a.Referenced {
			flags |= flagReferenced
		}
		if a.MaliciousPayload {
			flags |= flagMaliciousPayload
		}
		b = append(b, flags)
		b = appendFloat(b, a.ReachRate)
		for _, rates := range [2][]APIRate{a.Direct, a.Reflection} {
			b = binary.AppendUvarint(b, uint64(len(rates)))
			for _, r := range rates {
				b = binary.AppendUvarint(b, uint64(r.API))
				b = appendFloat(b, r.Rate)
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
// It walks the blob with a bounds-checked cursor: the blob is copied once
// into a string and every name in the result is a substring of that copy;
// the activities, APIRates and send-intents of the whole program live in
// three backing arrays, each allocated once at the total the header
// declares — only after that total is known to fit in the bytes that
// remain — and handed out as capped sub-slices. Empty slices decode to
// nil. Anything Encode would not have written (an overlong uvarint, a
// reserved flag bit, a total the body does not use up, trailing bytes) is
// an error, so an accepted blob re-encodes to the same bytes.
func Decode(data []byte) (*Program, error) {
	if len(data) < len(blobMagic) || string(data[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("behavior: decode: not a version 2 behaviour blob: starts %q, want %q",
			data[:min(len(data), len(blobMagic))], blobMagic)
	}
	c := cursor{data: data, str: string(data), off: len(blobMagic)}

	nActs, err := c.count("activity total", minActivityBytes)
	if err != nil {
		return nil, err
	}
	nRates, err := c.count("rate total", minRateBytes)
	if err != nil {
		return nil, err
	}
	nIntents, err := c.count("send-intent total", minIDBytes)
	if err != nil {
		return nil, err
	}
	c.acts = make([]ActivityBehavior, nActs)
	c.rates = make([]APIRate, nRates)
	c.intents = make([]framework.IntentID, nIntents)

	p := new(Program)
	flags, err := c.flags(programFlagsMask)
	if err != nil {
		return nil, err
	}
	p.SuppressOnEmulator = flags&flagSuppressOnEmulator != 0
	p.RequiresRealSensors = flags&flagRequiresRealSensors != 0
	if p.EmulatorChecks, err = c.u8(); err != nil {
		return nil, err
	}
	if p.PackageName, err = c.string(); err != nil {
		return nil, err
	}
	version, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if version > math.MaxInt {
		return nil, fmt.Errorf("behavior: decode: version %d out of range", version)
	}
	p.Version = int(version)
	seed, err := c.u64()
	if err != nil {
		return nil, err
	}
	p.Seed = int64(seed)
	if p.CrashBias, err = c.float(); err != nil {
		return nil, err
	}
	if p.Activities, err = c.activities(); err != nil {
		return nil, err
	}
	if p.ReceiverIntents, err = ids[framework.IntentID](&c, "receiver intent"); err != nil {
		return nil, err
	}
	if p.Permissions, err = ids[framework.PermissionID](&c, "permission"); err != nil {
		return nil, err
	}
	nLibs, err := c.count("native lib", minStringBytes)
	if err != nil {
		return nil, err
	}
	if nLibs > 0 {
		p.NativeLibs = make([]string, nLibs)
	}
	for i := range p.NativeLibs {
		if p.NativeLibs[i], err = c.string(); err != nil {
			return nil, err
		}
	}
	if flags&flagPayload != 0 {
		p.Payload = new(Payload)
		if p.Payload.Activities, err = c.activities(); err != nil {
			return nil, err
		}
	}
	if len(c.acts) != 0 || len(c.rates) != 0 || len(c.intents) != 0 {
		return nil, fmt.Errorf("behavior: decode: header totals exceed the body by %d activities, %d rates, %d send-intents",
			len(c.acts), len(c.rates), len(c.intents))
	}
	if c.off != len(data) {
		return nil, errors.New("behavior: decode: trailing data")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// cursor reads the blob off a byte slice it never reads past. str is the
// same bytes as one string, so names can be handed out as substrings;
// acts, rates and intents are what is left of the three arenas.
type cursor struct {
	data []byte
	str  string
	off  int

	acts    []ActivityBehavior
	rates   []APIRate
	intents []framework.IntentID
}

func (c *cursor) truncated() error {
	return fmt.Errorf("behavior: decode: truncated input: %w", io.ErrUnexpectedEOF)
}

func (c *cursor) u8() (uint8, error) {
	if c.off >= len(c.data) {
		return 0, c.truncated()
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

// flags reads a flag byte and rejects bits outside mask.
func (c *cursor) flags(mask uint8) (uint8, error) {
	b, err := c.u8()
	if err == nil && b&^mask != 0 {
		err = fmt.Errorf("behavior: decode: reserved flag bits %#02x", b&^mask)
	}
	return b, err
}

func (c *cursor) u64() (uint64, error) {
	if len(c.data)-c.off < 8 {
		return 0, c.truncated()
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) float() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

// uvarint reads one minimally encoded uvarint: a final zero group is a
// second spelling of a shorter encoding and is rejected.
func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n == 0 {
		return 0, c.truncated()
	}
	if n < 0 || (n > 1 && c.data[c.off+n-1] == 0) {
		return 0, errors.New("behavior: decode: malformed uvarint")
	}
	c.off += n
	return v, nil
}

// count reads an element count and rejects it unless that many elements
// of at least minBytes each can still follow: the caller may then allocate
// at the declared size.
func (c *cursor) count(what string, minBytes int) (int, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(c.data)-c.off)/uint64(minBytes) {
		return 0, fmt.Errorf("behavior: decode: %s count %d exceeds the bytes that remain: %w", what, n, io.ErrUnexpectedEOF)
	}
	return int(n), nil
}

func (c *cursor) string() (string, error) {
	n, err := c.count("string byte", 1)
	if err != nil {
		return "", err
	}
	s := c.str[c.off : c.off+n]
	c.off += n
	return s, nil
}

// id reads one API, intent or permission id.
func (c *cursor) id() (int32, error) {
	v, err := c.uvarint()
	if err == nil && v > math.MaxInt32 {
		err = fmt.Errorf("behavior: decode: id %d out of range", v)
	}
	return int32(v), err
}

// ids reads a counted id list into its own slice (nil when empty).
func ids[T ~int32](c *cursor, what string) ([]T, error) {
	n, err := c.count(what, minIDBytes)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		v, err := c.id()
		if err != nil {
			return nil, err
		}
		out[i] = T(v)
	}
	return out, nil
}

// take cuts the next n elements off an arena, capped so an append by the
// caller cannot reach the neighbouring slice; nil when n is zero.
func take[T any](arena *[]T, n int, what string) ([]T, error) {
	if n > len(*arena) {
		return nil, fmt.Errorf("behavior: decode: more %s than the header total", what)
	}
	if n == 0 {
		return nil, nil
	}
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return out, nil
}

// activities reads one counted activity list out of the arenas.
func (c *cursor) activities() ([]ActivityBehavior, error) {
	n, err := c.count("activity", minActivityBytes)
	if err != nil {
		return nil, err
	}
	acts, err := take(&c.acts, n, "activities")
	if err != nil {
		return nil, err
	}
	for i := range acts {
		a := &acts[i]
		if a.Name, err = c.string(); err != nil {
			return nil, err
		}
		flags, err := c.flags(activityFlagsMask)
		if err != nil {
			return nil, err
		}
		a.Referenced = flags&flagReferenced != 0
		a.MaliciousPayload = flags&flagMaliciousPayload != 0
		if a.ReachRate, err = c.float(); err != nil {
			return nil, err
		}
		if a.Direct, err = c.apiRates(); err != nil {
			return nil, err
		}
		if a.Reflection, err = c.apiRates(); err != nil {
			return nil, err
		}
		nIntents, err := c.count("send-intent", minIDBytes)
		if err != nil {
			return nil, err
		}
		if a.SendIntents, err = take(&c.intents, nIntents, "send-intents"); err != nil {
			return nil, err
		}
		for j := range a.SendIntents {
			id, err := c.id()
			if err != nil {
				return nil, err
			}
			a.SendIntents[j] = framework.IntentID(id)
		}
	}
	return acts, nil
}

func (c *cursor) apiRates() ([]APIRate, error) {
	n, err := c.count("rate", minRateBytes)
	if err != nil {
		return nil, err
	}
	rates, err := take(&c.rates, n, "rates")
	if err != nil {
		return nil, err
	}
	for i := range rates {
		id, err := c.id()
		if err != nil {
			return nil, err
		}
		rates[i].API = framework.APIID(id)
		if rates[i].Rate, err = c.float(); err != nil {
			return nil, err
		}
	}
	return rates, nil
}
