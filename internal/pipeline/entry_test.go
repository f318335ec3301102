package pipeline

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"apichecker/internal/ml"
)

// randVerdict fabricates an arbitrary verdict; strings include empty and
// non-ASCII cases, numerics include negatives and extreme values. Digest
// stays empty: it is the entry's key, not part of the entry.
func randVerdict(rng *rand.Rand) Verdict {
	strs := []string{"", "a", "com.example.app", "емулятор", "x/y\x00z", "stock-google"}
	return Verdict{
		Package:        strs[rng.Intn(len(strs))],
		VersionCode:    rng.Intn(1<<20) - 1<<10,
		Generation:     rng.Uint64(),
		Malicious:      rng.Intn(2) == 0,
		Score:          rng.NormFloat64() * float64(rng.Intn(100)+1),
		Tier:           rng.Intn(2) + 1,
		ScanTime:       time.Duration(rng.Int63n(1 << 40)),
		OverallTime:    time.Duration(rng.Int63n(1 << 40)),
		FellBack:       rng.Intn(2) == 0,
		Crashes:        rng.Intn(10) - 2,
		Engine:         strs[rng.Intn(len(strs))],
		InvokedKeyAPIs: rng.Intn(500),
	}
}

func randVector(rng *rand.Rand) ml.Vector {
	x := make(ml.Vector, rng.Intn(40))
	for i := range x {
		x[i] = rng.Uint64()
	}
	return x
}

// TestEntryRoundTripProperty: random verdict + vector pairs encode and
// decode bit-identically, with and without recycled decode storage.
func TestEntryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch ml.Vector
	for i := 0; i < 500; i++ {
		v, x := randVerdict(rng), randVector(rng)
		e := EncodeEntry(&v, x)

		var got Verdict
		vec, err := DecodeEntry(e, &got, scratch)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got != v {
			t.Fatalf("case %d: verdict round trip:\n  in  %+v\n  out %+v", i, v, got)
		}
		if len(vec) != len(x) {
			t.Fatalf("case %d: vector length %d != %d", i, len(vec), len(x))
		}
		for j := range x {
			if vec[j] != x[j] {
				t.Fatalf("case %d: vector word %d differs", i, j)
			}
		}
		// A decoded entry re-encodes to identical bytes: the layout is
		// canonical, so the persisted tier can never drift on rewrite.
		if re := EncodeEntry(&got, vec); !bytes.Equal(re, e) {
			t.Fatalf("case %d: re-encode differs from original entry", i)
		}
		scratch = vec // recycle decode storage across iterations
	}
}

// TestEntryRoundTripNaN: NaN scores survive by bit pattern (x != x, so the
// struct comparison above can't cover it).
func TestEntryRoundTripNaN(t *testing.T) {
	v := Verdict{Package: "nan.app", Score: math.NaN()}
	var got Verdict
	if _, err := DecodeEntry(EncodeEntry(&v, nil), &got, nil); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Score) {
		t.Fatalf("NaN score decoded as %v", got.Score)
	}
}

// TestEntryLeavesDigestToTheKey: the digest a verdict carries is not in its
// entry — two verdicts that differ only by it encode to the same bytes, and
// a decode leaves it for the caller to set from the key it looked up.
func TestEntryLeavesDigestToTheKey(t *testing.T) {
	v := Verdict{Package: "com.keyed", Digest: "ab12", Engine: "lightweight", Tier: 2}
	bare := v
	bare.Digest = ""
	e := EncodeEntry(&v, ml.Vector{9})
	if !bytes.Equal(e, EncodeEntry(&bare, ml.Vector{9})) {
		t.Fatal("the entry encodes the digest it is keyed by")
	}
	var got Verdict
	if _, err := DecodeEntry(e, &got, nil); err != nil {
		t.Fatal(err)
	}
	if got != bare {
		t.Fatalf("decoded %+v, want %+v", got, bare)
	}
}

// TestDecodeEntryRefusesV1: an entry in the version-1 layout (an MD5
// identity after the version code), as a persisted log from before the
// stream move holds them, is ErrBadEntry whatever else it says.
func TestDecodeEntryRefusesV1(t *testing.T) {
	v := Verdict{Package: "com.old", VersionCode: 3, Generation: 1, Tier: 2, Engine: "lightweight"}
	v2 := EncodeEntry(&v, ml.Vector{1, 2})
	// Splice the old layout out of the new one: version byte 1, and the
	// length-prefixed MD5 between VersionCode and Generation.
	cut := 1 + 4 + len(v.Package) + 8
	md5 := "0123456789abcdef0123456789abcdef"
	v1 := append([]byte{1}, v2[1:cut]...)
	v1 = appendLenPrefixed(v1, md5)
	v1 = append(v1, v2[cut:]...)
	var got Verdict
	if _, err := DecodeEntry(v1, &got, nil); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("v1 entry: err = %v, want ErrBadEntry", err)
	}
}

// TestDecodeEntryDoesNotAlias: mutating the encoded buffer after decode
// must not change the decoded result — the caller-owned-storage contract.
func TestDecodeEntryDoesNotAlias(t *testing.T) {
	v := Verdict{Package: "com.alias.check", Engine: "lightweight"}
	x := ml.Vector{1, 2, 3}
	e := EncodeEntry(&v, x)
	var got Verdict
	vec, err := DecodeEntry(e, &got, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e {
		e[i] = 0xFF
	}
	if got.Package != "com.alias.check" || got.Engine != "lightweight" {
		t.Fatalf("decoded strings alias the entry buffer: %+v", got)
	}
	if vec[0] != 1 || vec[1] != 2 || vec[2] != 3 {
		t.Fatalf("decoded vector aliases the entry buffer: %v", vec)
	}
}

// TestDecodeEntryCorrupt: systematic corruption — truncations at every
// length and random byte flips — must yield ErrBadEntry or a clean decode,
// never a panic. (Byte flips inside string payloads decode fine; flips in
// length prefixes must be caught by the bounds checks.)
func TestDecodeEntryCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v, x := randVerdict(rng), randVector(rng)
	e := EncodeEntry(&v, x)

	var got Verdict
	for cut := 0; cut < len(e); cut++ {
		if _, err := DecodeEntry(e[:cut], &got, nil); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		} else if !errors.Is(err, ErrBadEntry) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrBadEntry", cut, err)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), e...)
		for flips := rng.Intn(4) + 1; flips > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		DecodeEntry(mut, &got, nil) // must not panic; error is fine
	}
}

// FuzzEntryDecode drives DecodeEntry with arbitrary bytes: it must never
// panic, and whatever it accepts must re-encode canonically.
func FuzzEntryDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		v, x := randVerdict(rng), randVector(rng)
		f.Add(EncodeEntry(&v, x))
	}
	tier1 := Verdict{
		Package: "t", Generation: 1, Malicious: true, Score: 2, Tier: 1,
		ScanTime: 75 * time.Microsecond, OverallTime: 75*time.Microsecond + FixedOverhead,
		Engine: "triage.static",
	}
	f.Add(EncodeEntry(&tier1, nil))
	f.Add([]byte{})
	f.Add([]byte{entryVersion})
	f.Add([]byte{entryVersion, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var v Verdict
		vec, err := DecodeEntry(data, &v, nil)
		if err != nil {
			if !errors.Is(err, ErrBadEntry) {
				t.Fatalf("decode error %v does not wrap ErrBadEntry", err)
			}
			return
		}
		if re := EncodeEntry(&v, vec); !bytes.Equal(re, data) {
			t.Fatalf("accepted entry is not canonical: %x != %x", re, data)
		}
	})
}
