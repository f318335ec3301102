package modelstore

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"apichecker/internal/features"
	"apichecker/internal/framework"
	"apichecker/internal/wire"
)

// allocatedBytes reports the heap bytes f allocates (cumulative, so a
// buffer that is freed again still counts).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLyingCountAllocatesNothing: every count the artifact layer declares
// — evolve seeds, string bytes, each reflected slice type the config and
// selection hold — is checked against the bytes that remain before
// anything is sized by it. (The forest's and the triage model's own counts
// are the ml package's test of the same name.)
func TestLyingCountAllocatesNothing(t *testing.T) {
	const lie = maxCount
	lying := binary.LittleEndian.AppendUint32(nil, lie)
	lying = append(lying, make([]byte, 16)...) // two elements' worth follow, not 2^26

	seeds := append([]byte(artifactMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(seeds[len(artifactMagic):], artifactVersion)
	seeds, err := appendValue(seeds, reflect.ValueOf(framework.TestConfig(2000)))
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, lying...)

	value := func(target any) func() error {
		return func() error {
			r := wire.NewReader(lying)
			readValue(&r, reflect.ValueOf(target).Elem())
			if err := r.Err(); err != nil {
				return artifactError(err)
			}
			return nil
		}
	}
	cases := []struct {
		name   string
		decode func() error
	}{
		{"evolve seeds", func() error { _, err := Decode(seeds); return err }},
		{"string bytes", value(new(string))},
		{"[]APIID", value(new([]framework.APIID))},
		{"[]float64", value(new([]float64))},
		{"[]struct", value(new([]features.SelectionConfig))},
		{"[]string", value(new([]string))},
	}
	for _, tc := range cases {
		var err error
		got := allocatedBytes(func() { err = tc.decode() })
		if !isTyped(err) {
			t.Errorf("%s: untyped or missing error %v", tc.name, err)
		}
		if got >= 1<<20 {
			t.Errorf("%s: a lying count made the decoder allocate %d bytes", tc.name, got)
		}
	}
}

// FuzzArtifactDecode: Decode never panics, and the encoding is canonical —
// whatever decodes re-encodes to exactly the bytes it came from, so two
// different payloads can never share a content address's model.
func FuzzArtifactDecode(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, a := range []*Artifact{randomArtifact(f, seed), withTriage(f, randomArtifact(f, seed), seed*31)} {
			enc, err := a.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Add([]byte(artifactMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			if !isTyped(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		re, err := a.Encode()
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode→encode moved the bytes: %d in, %d out", len(data), len(re))
		}
	})
}
