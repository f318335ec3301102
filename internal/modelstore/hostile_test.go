package modelstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

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

// countRecorder encodes like wire.Encoder and notes the offset of every
// count it writes — slice lengths by what they count, string lengths as
// "string".
type countRecorder struct {
	wire.Encoder
	at map[string][]int
}

func (c *countRecorder) Len(n *int, what string, minBytesEach int) {
	c.at[what] = append(c.at[what], len(c.B))
	c.Encoder.Len(n, what, minBytesEach)
}

func (c *countRecorder) String(v *string) {
	c.at["string"] = append(c.at["string"], len(c.B))
	c.Encoder.String(v)
}

// TestLyingCountAllocatesNothing: every count the artifact's fields
// declare — the evolve seeds, the profile name, each of the selection's
// four API id lists and its SRC table — is checked against the bytes that
// remain before anything is sized by it. (The forest's and the triage
// model's own counts are the ml package's test of the same name.)
func TestLyingCountAllocatesNothing(t *testing.T) {
	a := randomArtifact(t, 3)
	a.EvolveSeeds = []int64{7}
	rec := &countRecorder{
		Encoder: wire.Encoder{B: binary.LittleEndian.AppendUint32([]byte(artifactMagic), artifactVersion)},
		at:      map[string][]int{},
	}
	a.Fields(rec)
	ids := rec.at["API id"]
	if len(ids) != 4 {
		t.Fatalf("the selection declared %d API id lists, want 4", len(ids))
	}
	for _, tc := range []struct {
		name string
		at   int
	}{
		{"evolve seeds", rec.at["evolve seed"][0]},
		{"profile name", rec.at["string"][0]},
		{"SetC", ids[0]}, {"SetP", ids[1]}, {"SetS", ids[2]}, {"Keys", ids[3]},
		{"SRC", rec.at["SRC"][0]},
	} {
		lying := binary.LittleEndian.AppendUint32(bytes.Clone(rec.B[:tc.at]), math.MaxUint32)
		lying = append(lying, make([]byte, 16)...) // two elements' worth follow, not 2^32
		var err error
		got := allocatedBytes(func() { _, err = Decode(lying) })
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
