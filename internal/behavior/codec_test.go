package behavior

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"apichecker/internal/framework"
)

// corpusPrograms generates one program per malware family and per benign
// category (update-attack carries a Payload), plus hand-made shapes the
// generator does not produce: every slice empty, an empty Payload, empty
// non-nil slices.
func corpusPrograms() []*Program {
	g := testGen()
	var out []*Program
	for f := Family(1); f <= NumFamilies; f++ {
		out = append(out, g.Generate(maliciousSpec(int64(100+f), f)))
	}
	for c := Category(0); c < NumCategories; c++ {
		spec := benignSpec(int64(200 + c))
		spec.Category = c
		out = append(out, g.Generate(spec))
	}
	bare := func() *Program {
		return &Program{PackageName: "com.bare.app", Version: 1, Seed: -7,
			Activities: []ActivityBehavior{{Name: "Main", Referenced: true, ReachRate: 1}}}
	}
	out = append(out, bare())
	p := bare()
	p.Payload = &Payload{}
	out = append(out, p)
	p = bare()
	p.Activities[0].Direct = []APIRate{}
	p.Activities[0].SendIntents = []framework.IntentID{}
	p.ReceiverIntents = []framework.IntentID{}
	p.Permissions = []framework.PermissionID{}
	p.NativeLibs = []string{}
	p.Payload = &Payload{Activities: []ActivityBehavior{}}
	out = append(out, p)
	p = bare()
	p.Payload = &Payload{Activities: []ActivityBehavior{{Name: "Loaded", ReachRate: math.SmallestNonzeroFloat64,
		Direct: []APIRate{{API: math.MaxInt32, Rate: math.MaxFloat64}}, SendIntents: []framework.IntentID{0, math.MaxInt32}}}}
	p.SuppressOnEmulator, p.RequiresRealSensors, p.EmulatorChecks = true, true, AllChecks
	p.Seed = math.MinInt64
	out = append(out, p)
	return out
}

// checkAgainstReference fails unless, when Decode accepts data, the result
// re-encodes to exactly data and survives the reference codec
// (encodeReference then decodeReference) as a DeepEqual Program.
func checkAgainstReference(t *testing.T, data []byte) *Program {
	t.Helper()
	got, err := Decode(data)
	if err != nil {
		return nil
	}
	re, err := got.Encode()
	if err != nil {
		t.Fatalf("decoded program fails to re-encode: %v", err)
	}
	if !bytes.Equal(re, data) {
		t.Fatalf("Encode(Decode(b)) != b:\nb  %x\nre %x", data, re)
	}
	ref, err := encodeReference(got)
	if err != nil {
		t.Fatalf("reference refuses to encode what Decode accepted: %v", err)
	}
	want, err := decodeReference(ref)
	if err != nil {
		t.Fatalf("reference refuses to decode what Decode accepted: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("values differ:\ngot  %+v\nwant %+v", got, want)
	}
	return got
}

// TestDecodeMatchesReference: over every family and category, with and
// without Payload, and with empty slices, Decode(Encode(p)) is the Program
// the gob codec's round trip of p produced; then every prefix and every
// single-byte corruption of one blob is either rejected or still agrees.
func TestDecodeMatchesReference(t *testing.T) {
	for _, p := range corpusPrograms() {
		data, err := p.Encode()
		if err != nil {
			t.Fatalf("%s: %v", p.PackageName, err)
		}
		got := checkAgainstReference(t, data)
		if got == nil {
			t.Fatalf("%s: Decode refused Encode's output", p.PackageName)
		}
		ref, err := encodeReference(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := decodeReference(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cursor and reference round trips differ:\ngot  %+v\nwant %+v", p.PackageName, got, want)
		}
	}

	good, err := testGen().Generate(maliciousSpec(3, FamilyUpdateAttack)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := Decode(good[:n]); err == nil {
			t.Fatalf("Decode accepted a %d-byte prefix of a %d-byte blob", n, len(good))
		}
	}
	for i := range good {
		for _, b := range []byte{0x00, 0x01, 0x7F, 0x80, 0xFF} {
			mut := append([]byte{}, good...)
			mut[i] = b
			checkAgainstReference(t, mut)
		}
	}
}

// TestDecodeCapsEverySubSlice: the arenas hand out sub-slices capped at
// their length, so an append by the caller copies rather than writing into
// the neighbouring activity's elements.
func TestDecodeCapsEverySubSlice(t *testing.T) {
	data, err := testGen().Generate(maliciousSpec(3, FamilyUpdateAttack)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	capped := func(what string, length, capacity int) {
		t.Helper()
		if length != capacity {
			t.Errorf("%s: len %d, cap %d", what, length, capacity)
		}
	}
	for _, acts := range [][]ActivityBehavior{p.Activities, p.Payload.Activities} {
		capped("activities", len(acts), cap(acts))
		for i := range acts {
			a := &acts[i]
			capped(a.Name+" Direct", len(a.Direct), cap(a.Direct))
			capped(a.Name+" Reflection", len(a.Reflection), cap(a.Reflection))
			capped(a.Name+" SendIntents", len(a.SendIntents), cap(a.SendIntents))
		}
	}
}

// TestDecodeRejectsWhatEncodeNeverWrites: one blob per rule that keeps the
// encoding canonical.
func TestDecodeRejectsWhatEncodeNeverWrites(t *testing.T) {
	p := &Program{PackageName: "p", Version: 1,
		Activities: []ActivityBehavior{{Name: "A", Referenced: true, ReachRate: 1}}}
	good, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	// good: magic(4) totals 1,0,0 (3) flags(1) checks(1) "p"(2) version(1) ...
	const totals, flags, version = 4, 7, 11
	edit := func(at int, with ...byte) []byte {
		out := append([]byte{}, good[:at]...)
		out = append(out, with...)
		return append(out, good[at+1:]...)
	}
	gobBlob, err := encodeReference(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "version 2"},
		{"gob blob", gobBlob, "version 2"},
		{"version 3", append([]byte("BHV\x03"), good[4:]...), "version 2"},
		{"trailing byte", append(append([]byte{}, good...), 0), "trailing"},
		{"overlong uvarint", edit(version, 0x81, 0x00), "uvarint"},
		{"uvarint overflow", edit(version, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), "uvarint"},
		{"reserved program flag", edit(flags, 0x08), "reserved flag"},
		{"unused activity total", edit(totals, 2), "header totals exceed"},
		{"unused send-intent total", edit(totals+2, 1), "header totals exceed"},
		{"activity total too small", edit(totals, 0), "more activities"},
	}
	for _, tc := range cases {
		_, err := Decode(tc.data)
		if err == nil {
			t.Errorf("%s: Decode accepted it", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeLyingHeaderAllocatesNothing: a tiny blob whose header declares
// a huge arena, or whose first string declares a huge length, must be
// rejected from the declaration alone.
func TestDecodeLyingHeaderAllocatesNothing(t *testing.T) {
	const lie = 1 << 30
	blob := func(vs ...uint64) []byte {
		b := []byte(blobMagic)
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	pad := func(b []byte) []byte { return append(b, make([]byte, 64)...) }
	cases := []struct {
		name string
		data []byte
	}{
		{"activity total", pad(blob(lie))},
		{"rate total", pad(blob(1, lie))},
		{"send-intent total", pad(blob(1, 0, lie))},
		// totals 1,0,0; flags and checks as uvarint 0 are single zero bytes.
		{"string length", pad(blob(1, 0, 0, 0, 0, lie))},
	}
	for _, tc := range cases {
		// TotalAlloc is process-wide, so another goroutine's allocation can
		// land inside the window: the smallest of a few readings is Decode's.
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(tc.data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: Decode accepted a %d-byte input declaring %d", tc.name, len(tc.data), lie)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 4<<10 {
			t.Errorf("%s: Decode of a %d-byte input allocated %d bytes, want < 4 KiB", tc.name, len(tc.data), least)
		}
	}
}

// TestDecodeRejectsNonFiniteBlob: Encode cannot write a NaN (Validate runs
// first), so the hostile blob is made by patching a marker rate's eight
// bytes; Decode runs Validate last and refuses it.
func TestDecodeRejectsNonFiniteBlob(t *testing.T) {
	const marker = 12345.6789
	p := testGen().Generate(benignSpec(5))
	p.Activities[0].Direct = append(p.Activities[0].Direct, APIRate{API: 1, Rate: marker})
	good, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(good, binary.LittleEndian.AppendUint64(nil, math.Float64bits(marker)))
	if at < 0 {
		t.Fatal("marker rate not found in the blob")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		blob := append([]byte{}, good...)
		binary.LittleEndian.PutUint64(blob[at:], math.Float64bits(v))
		if _, err := Decode(blob); err == nil {
			t.Errorf("Decode accepted a blob with a rate of %v", v)
		}
	}
}

// TestDecoderReuseReadsAsFresh: one Decoder reads every corpus program, in
// order and then backwards, each right after it refused a truncated copy
// of that program's blob, exactly as a fresh Decode reads it — the storage
// it reuses carries nothing from one blob to the next.
func TestDecoderReuseReadsAsFresh(t *testing.T) {
	var blobs [][]byte
	for _, p := range corpusPrograms() {
		data, err := p.Encode()
		if err != nil {
			t.Fatalf("%s: %v", p.PackageName, err)
		}
		blobs = append(blobs, data)
	}
	var d Decoder
	for k := range 2 * len(blobs) {
		data := blobs[k%len(blobs)]
		if k >= len(blobs) {
			data = blobs[2*len(blobs)-1-k]
		}
		if _, err := d.Decode(data[:len(data)-1]); err == nil {
			t.Fatalf("blob %d: Decode accepted it truncated", k)
		}
		got, err := d.Decode(data)
		if err != nil {
			t.Fatalf("blob %d: %v", k, err)
		}
		want, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("blob %d: a reused Decoder read\n%+v\nwhere a fresh one reads\n%+v", k, got, want)
		}
	}
}
