package dex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func sample() *File {
	return &File{
		NativeLibs: []string{"lib/armeabi-v7a/libnative.so"},
		Classes: []Class{
			{
				Name:       "com.example.MainActivity",
				IsActivity: true,
				Methods: []Method{
					{Name: "onCreate", Calls: []CallSite{
						{Kind: CallDirect, Target: "android.app.Activity.findViewById"},
						{Kind: CallDirect, Target: "android.widget.TextView.setText"},
						{Kind: CallStartActivity, Target: "com.example.DetailActivity"},
					}},
					{Name: "onResume", Calls: []CallSite{
						{Kind: CallIntentSend, Target: "android.intent.action.VIEW"},
						{Kind: CallDirect, Target: "android.widget.TextView.setText"},
					}},
				},
			},
			{
				Name:       "com.example.DetailActivity",
				IsActivity: true,
				Methods: []Method{
					{Name: "onCreate", Calls: []CallSite{
						{Kind: CallReflection, Target: "obf$a1b2"},
						{Kind: CallLoadDex, Target: "assets/payload.dex"},
					}},
				},
			},
			{Name: "com.example.Helper", Methods: []Method{{Name: "run"}}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sample()
	data, err := f.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, f)
	}
}

func TestDirectAPIRefs(t *testing.T) {
	got := sample().DirectAPIRefs()
	want := []string{"android.app.Activity.findViewById", "android.widget.TextView.setText"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DirectAPIRefs = %v, want %v", got, want)
	}
}

func TestIntentActions(t *testing.T) {
	got := sample().IntentActions()
	want := []string{"android.intent.action.VIEW"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IntentActions = %v, want %v", got, want)
	}
}

func TestReferencedActivities(t *testing.T) {
	got := sample().ReferencedActivities()
	want := []string{"com.example.DetailActivity"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReferencedActivities = %v, want %v", got, want)
	}
}

func TestTraitDetectors(t *testing.T) {
	f := sample()
	if !f.UsesReflection() {
		t.Error("UsesReflection = false, want true")
	}
	if !f.LoadsDynamicCode() {
		t.Error("LoadsDynamicCode = false, want true")
	}
	if n := f.NumCallSites(); n != 7 {
		t.Errorf("NumCallSites = %d, want 7", n)
	}
	clean := &File{Classes: []Class{{Name: "a.B", Methods: []Method{{Name: "m"}}}}}
	if clean.UsesReflection() || clean.LoadsDynamicCode() {
		t.Error("clean file reports evasion traits")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	f := sample()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("notadexx"), data[8:]...)},
		{"truncated", data[:len(data)/2]},
		{"trailing garbage", append(append([]byte{}, data...), 0xFF)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", tc.name)
		}
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	// magic + string count claiming 2^31 entries.
	data := append(append([]byte{}, Magic[:]...), 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := Decode(data); err == nil {
		t.Error("Decode accepted absurd string count")
	}
}

func TestEncodeRejectsInvalidKind(t *testing.T) {
	f := &File{Classes: []Class{{Name: "x.Y", Methods: []Method{
		{Name: "m", Calls: []CallSite{{Kind: CallKind(99), Target: "t"}}},
	}}}}
	if _, err := f.Encode(); err == nil {
		t.Error("Encode accepted invalid call kind")
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	data, err := (&File{}).Encode()
	if err != nil {
		t.Fatalf("Encode empty: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if len(got.Classes) != 0 || len(got.NativeLibs) != 0 {
		t.Errorf("empty round trip produced %+v", got)
	}
}

// Property: random well-formed files round-trip byte-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		file := randomFile(rng)
		data, err := file.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, file)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomFile(rng *rand.Rand) *File {
	kinds := []CallKind{CallDirect, CallReflection, CallIntentSend, CallStartActivity, CallLoadDex}
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var f File
	for i := 0; i < rng.Intn(5); i++ {
		f.NativeLibs = append(f.NativeLibs, "lib/"+names[rng.Intn(len(names))]+".so")
	}
	for i := 0; i < 1+rng.Intn(6); i++ {
		c := Class{Name: "pkg." + names[rng.Intn(len(names))], IsActivity: rng.Intn(2) == 0}
		for j := 0; j < rng.Intn(4); j++ {
			m := Method{Name: names[rng.Intn(len(names))]}
			for k := 0; k < rng.Intn(6); k++ {
				m.Calls = append(m.Calls, CallSite{
					Kind:   kinds[rng.Intn(len(kinds))],
					Target: names[rng.Intn(len(names))],
				})
			}
			c.Methods = append(c.Methods, m)
		}
		f.Classes = append(f.Classes, c)
	}
	return &f
}

// TestDecodeLyingHeaderAllocatesNothing: a tiny classes.dex whose header
// declares a huge string or table must be rejected from the declaration
// alone. The reference decoder sized a make() from the lie (16 MiB for a
// 20-byte input); the cursor checks every count and length against the
// bytes that remain first.
func TestDecodeLyingHeaderAllocatesNothing(t *testing.T) {
	u32 := func(b []byte, vs ...uint32) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	const lie = maxReasonableCount // the largest value the old bound let through
	magic := Magic[:]
	// One empty pooled string, no libs: the prefix the class-table lies need.
	pool1 := u32(append([]byte{}, magic...), 1, 0)
	cases := []struct {
		name string
		data []byte
	}{
		{"string length", u32(append([]byte{}, magic...), 1, lie)},
		{"string pool count", u32(append([]byte{}, magic...), lie)},
		{"native lib count", u32(append([]byte{}, pool1...), lie)},
		{"class count", u32(append([]byte{}, pool1...), 0, lie)},
		{"method count", u32(append(u32(append([]byte{}, pool1...), 0, 1, 0), 1), lie)},
		{"call count", u32(append(u32(append([]byte{}, pool1...), 0, 1, 0), 1), 1, 0, lie)},
	}
	for _, tc := range cases {
		if _, err := decodeReference(tc.data); err == nil {
			t.Fatalf("%s: reference accepted the lying input; the case is malformed", tc.name)
		}
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

// TestDecodeMatchesReference runs the differential check over well-formed
// files and every prefix and single-byte corruption of one.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		data, err := randomFile(rng).Encode()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, data)
	}
	good, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(good); n++ {
		checkAgainstReference(t, good[:n])
	}
	for i := range good {
		for _, b := range []byte{0x00, 0x01, 0x7F, 0xFF} {
			mut := append([]byte{}, good...)
			mut[i] = b
			checkAgainstReference(t, mut)
		}
	}
}

// checkAgainstReference fails unless Decode and decodeReference agree on
// data: both reject it, or both accept it with DeepEqual files.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := Decode(data)
	want, wantErr := decodeReference(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("accept sets differ on %d bytes %x: Decode err %v, reference err %v", len(data), data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("values differ on %d bytes %x:\ngot  %+v\nwant %+v", len(data), data, got, want)
	}
}

// decodeReference is Decode as it stood before the cursor rewrite, kept
// verbatim (a bufio.Reader, one make per pooled string, append growth) as
// the oracle FuzzDecodeMatchesReference and the corpus tests compare the
// cursor against: same accept set, DeepEqual value.
func decodeReference(data []byte) (*File, error) {
	r := &reader{br: bufio.NewReader(bytes.NewReader(data))}
	var magic [8]byte
	r.bytes(magic[:])
	if r.err == nil && magic != Magic {
		return nil, fmt.Errorf("dex: decode: bad magic %q", magic[:])
	}

	nStrings := r.u32()
	if r.err == nil && nStrings > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: string pool count %d too large", nStrings)
	}
	strs := make([]string, 0, min(int(nStrings), 4096))
	for i := uint32(0); i < nStrings && r.err == nil; i++ {
		n := r.u32()
		if r.err == nil && n > maxReasonableCount {
			return nil, fmt.Errorf("dex: decode: string length %d too large", n)
		}
		b := make([]byte, n)
		r.bytes(b)
		strs = append(strs, string(b))
	}
	str := func(idx uint32) string {
		if r.err != nil {
			return ""
		}
		if int(idx) >= len(strs) {
			r.err = fmt.Errorf("dex: decode: string index %d out of range (%d strings)", idx, len(strs))
			return ""
		}
		return strs[idx]
	}

	var f File
	nLibs := r.u32()
	if r.err == nil && nLibs > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: native lib count %d too large", nLibs)
	}
	for i := uint32(0); i < nLibs && r.err == nil; i++ {
		f.NativeLibs = append(f.NativeLibs, str(r.u32()))
	}

	nClasses := r.u32()
	if r.err == nil && nClasses > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: class count %d too large", nClasses)
	}
	for i := uint32(0); i < nClasses && r.err == nil; i++ {
		var c Class
		c.Name = str(r.u32())
		c.IsActivity = r.u8() == 1
		nMethods := r.u32()
		if r.err == nil && nMethods > maxReasonableCount {
			return nil, fmt.Errorf("dex: decode: method count %d too large", nMethods)
		}
		for j := uint32(0); j < nMethods && r.err == nil; j++ {
			var m Method
			m.Name = str(r.u32())
			nCalls := r.u32()
			if r.err == nil && nCalls > maxReasonableCount {
				return nil, fmt.Errorf("dex: decode: call count %d too large", nCalls)
			}
			for k := uint32(0); k < nCalls && r.err == nil; k++ {
				kind := CallKind(r.u8())
				if r.err == nil && kind > CallLoadDex {
					return nil, fmt.Errorf("dex: decode: invalid call kind %d", kind)
				}
				m.Calls = append(m.Calls, CallSite{Kind: kind, Target: str(r.u32())})
			}
			c.Methods = append(c.Methods, m)
		}
		f.Classes = append(f.Classes, c)
	}
	if r.err != nil {
		return nil, r.err
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, errors.New("dex: decode: trailing data")
	}
	return &f, nil
}

type reader struct {
	br  *bufio.Reader
	err error
}

func (r *reader) bytes(b []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.br, b); err != nil {
		r.err = fmt.Errorf("dex: decode: truncated input: %w", err)
	}
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) u8() uint8 {
	var b [1]byte
	r.bytes(b[:])
	if r.err != nil {
		return 0
	}
	return b[0]
}
