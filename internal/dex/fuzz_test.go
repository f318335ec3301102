package dex

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecode hardens the codec against malformed archives: decoding must
// never panic, and anything that decodes must re-encode/decode to the same
// value.
func FuzzDecode(f *testing.F) {
	good, err := sample().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	empty, err := (&File{}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add(Magic[:])
	f.Add(append(append([]byte{}, Magic[:]...), 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			return
		}
		re, err := file.Encode()
		if err != nil {
			t.Fatalf("decoded file fails to re-encode: %v", err)
		}
		file2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded file fails to decode: %v", err)
		}
		if !reflect.DeepEqual(file, file2) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}

// FuzzDecodeMatchesReference is the differential target for the cursor
// decoder: on any input it accepts exactly what decodeReference accepts,
// with a DeepEqual File. Seeds are the FuzzDecode corpus, random files, and
// (under testdata/fuzz) the classes.dex of three archives apk.Build wrote —
// this package cannot build them itself, apk imports it.
func FuzzDecodeMatchesReference(f *testing.F) {
	good, err := sample().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte{}, good...), 0))
	empty, err := (&File{}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add(Magic[:])
	f.Add(append(append([]byte{}, Magic[:]...), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Add(append(append([]byte{}, Magic[:]...), 1, 0, 0, 0, 0, 0, 0, 1))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		data, err := randomFile(rng).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}
