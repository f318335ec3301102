package apk

import (
	"testing"

	"apichecker/internal/behavior"
	"apichecker/internal/dex"
	"apichecker/internal/manifest"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// TestDecodeAllocBudget pins what decoding costs over the 32 golden
// archives: the vet view a cache miss reads (Open, Manifest, Program; the
// dex never inflated), a full Parse, and each of the three decoders on its
// own inflated entry. An archive's count depends on its app, so each budget
// is the measured total over the 32: one allocation more on any archive
// fails it.
func TestDecodeAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	archives := goldenArchives(t)
	var entries [len(loadEntries)][][]byte
	for _, data := range archives {
		parts, err := Inflate(data)
		if err != nil {
			t.Fatal(err)
		}
		for k := range entries {
			entries[k] = append(entries[k], parts[k])
		}
	}
	for _, tc := range []struct {
		name   string
		budget float64
		inputs [][]byte
		decode func([]byte) error
	}{
		{"vet", 483, archives, func(d []byte) error {
			a, err := Open(d)
			if err != nil {
				return err
			}
			if _, err := a.Manifest(); err != nil {
				return err
			}
			_, err = a.Program()
			return err
		}},
		{"full", 1278, archives, func(d []byte) error { _, err := Parse(d); return err }},
		{"manifest", 245, entries[entryManifest], func(d []byte) error { _, err := manifest.Decode(d); return err }},
		{"dex", 763, entries[entryDex], func(d []byte) error { _, err := dex.Decode(d); return err }},
		{"behavior", 206, entries[entryProgram], func(d []byte) error { _, err := behavior.Decode(d); return err }},
	} {
		n := testing.AllocsPerRun(10, func() {
			for _, d := range tc.inputs {
				if err := tc.decode(d); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		})
		if n > tc.budget {
			t.Errorf("%s: %d archives allocate %.0f times, budget %.0f", tc.name, len(tc.inputs), n, tc.budget)
		} else {
			t.Logf("%s: %d archives allocate %.0f times, %.2f an archive", tc.name, len(tc.inputs), n, n/float64(len(tc.inputs)))
		}
	}
}
