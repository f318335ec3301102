package modelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"apichecker/internal/core"
	"apichecker/internal/emulator"
	"apichecker/internal/features"
	"apichecker/internal/framework"
	"apichecker/internal/ml"
)

// randomArtifact builds a structurally rich artifact with randomized
// contents: the codec must round-trip whatever the fields hold, not just
// the defaults.
func randomArtifact(t testing.TB, seed int64) *Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	ucfg := framework.TestConfig(2000 + rng.Intn(3000))
	ucfg.Seed = rng.Int63n(1 << 30)
	ucfg.HiddenFraction = rng.Float64()

	cfg := core.DefaultConfig().ModelConfig
	cfg.Events = 1000 + rng.Intn(9000)
	cfg.Seed = rng.Int63n(1 << 30)
	if rng.Intn(2) == 0 {
		cfg.Profile = emulator.GoogleEmulator
	} else {
		cfg.Profile = emulator.LightweightEmulator // carries a Fallback pointer
	}
	cfg.Forest.Trees = 4 + rng.Intn(12)

	nKeys := 5 + rng.Intn(40)
	sel := features.Selection{Config: features.DefaultSelectionConfig()}
	for i := 0; i < nKeys; i++ {
		id := framework.APIID(rng.Intn(5000))
		sel.Keys = append(sel.Keys, id)
		switch rng.Intn(3) {
		case 0:
			sel.SetC = append(sel.SetC, id)
		case 1:
			sel.SetP = append(sel.SetP, id)
		default:
			sel.SetS = append(sel.SetS, id)
		}
	}
	sel.SRC = make([]float64, rng.Intn(100))
	for i := range sel.SRC {
		sel.SRC[i] = rng.NormFloat64()
	}

	nf := 24 + rng.Intn(40)
	d := ml.NewDataset(nf)
	for i := 0; i < 100; i++ {
		x := ml.NewVector(nf)
		y := rng.Float64() < 0.4
		for f := 0; f < nf; f++ {
			p := 0.15
			if y && f%3 == 0 {
				p = 0.7
			}
			if rng.Float64() < p {
				x.Set(f)
			}
		}
		d.Add(x, y)
	}
	fc := ml.ForestConfig{Trees: 8, MaxDepth: 7, MinLeaf: 1, Seed: seed}
	forest := ml.NewRandomForest(fc)
	if err := forest.Train(d); err != nil {
		t.Fatal(err)
	}

	var seeds []int64
	for i := 0; i < rng.Intn(4); i++ {
		seeds = append(seeds, rng.Int63n(1<<30))
	}
	return &Artifact{
		UniverseCfg: ucfg,
		EvolveSeeds: seeds,
		Model:       cfg,
		Selection:   sel,
		Forest:      forest,
	}
}

// randomVectors builds scoring inputs matching the forest's feature space.
func randomVectors(rng *rand.Rand, n, features int) []ml.Vector {
	xs := make([]ml.Vector, n)
	for i := range xs {
		x := ml.NewVector(features)
		for f := 0; f < features; f++ {
			if rng.Intn(3) == 0 {
				x.Set(f)
			}
		}
		xs[i] = x
	}
	return xs
}

// TestArtifactRoundTripProperty is the serialization property test:
// across randomized artifacts, encode is deterministic and canonical
// (decode→encode reproduces the bytes), digests are stable, and the
// decoded forest scores bit-identically to the original.
func TestArtifactRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		a := randomArtifact(t, seed)
		enc, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		enc2, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("seed %d: repeated encode differs", seed)
		}

		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		re, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("seed %d: decode→encode not canonical", seed)
		}
		d1, err := a.Digest()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := dec.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("seed %d: digest changed across round trip", seed)
		}

		if !reflect.DeepEqual(dec.UniverseCfg, a.UniverseCfg) || !reflect.DeepEqual(dec.Model, a.Model) ||
			!reflect.DeepEqual(dec.EvolveSeeds, a.EvolveSeeds) || !reflect.DeepEqual(dec.Selection, a.Selection) {
			t.Fatalf("seed %d: decoded fields diverge", seed)
		}

		rng := rand.New(rand.NewSource(seed * 977))
		xs := randomVectors(rng, 64, 24)
		want := a.Forest.ScoreBatch(xs, nil)
		got := dec.Forest.ScoreBatch(xs, nil)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d row %d: decoded forest score %v != %v", seed, i, got[i], want[i])
			}
		}
	}
}

// isTyped reports the error wraps one of the package's decode sentinels.
func isTyped(err error) bool {
	return errors.Is(err, ErrFormat) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrCorruptArtifact)
}

// TestArtifactTruncatedAndCorrupt: every truncation point and every
// single-byte corruption either decodes (a flipped float bit can be
// valid) or fails with a typed error — never a panic, never an untyped
// error.
func TestArtifactTruncatedAndCorrupt(t *testing.T) {
	a := randomArtifact(t, 42)
	enc, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(enc); cut += 11 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		} else if !isTyped(err) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		bad := append([]byte(nil), enc...)
		i := rng.Intn(len(bad))
		bad[i] ^= byte(1 + rng.Intn(255))
		if _, err := Decode(bad); err != nil && !isTyped(err) {
			t.Fatalf("corruption at byte %d: untyped error %v", i, err)
		}
	}

	// Not an artifact at all.
	if _, err := Decode([]byte("definitely not a model artifact")); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty payload: %v", err)
	}
}

// TestArtifactVersion2Refused: a version 2 header — what a binary that
// reflect-walked the whole core.Config wrote — is refused by name, never
// read as the version 3 layout.
func TestArtifactVersion2Refused(t *testing.T) {
	enc, err := randomArtifact(t, 5).Encode()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(enc[len(artifactMagic):], 2)
	_, err = Decode(enc)
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "format version 2, want 3") {
		t.Fatalf("Decode(v2 header) = %v, want ErrFormat naming format version 2, want 3", err)
	}
}
