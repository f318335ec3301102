package modelstore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"apichecker/internal/ml"
)

// withTriage attaches a trained tier-1 linear model and a non-trivial
// uncertainty band to an artifact.
func withTriage(t testing.TB, a *Artifact, seed int64) *Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nf := 16 + rng.Intn(24)
	d := ml.NewDataset(nf)
	for i := 0; i < 80; i++ {
		x := ml.NewVector(nf)
		y := i%3 == 0
		for f := 0; f < nf; f++ {
			p := 0.1
			if y && f%2 == 0 {
				p = 0.6
			}
			if rng.Float64() < p {
				x.Set(f)
			}
		}
		d.Add(x, y)
	}
	tri, err := ml.TrainLinear(d, ml.DefaultLinearConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	a.Triage = tri
	a.Model.TriageLo, a.Model.TriageHi = 0.1, 0.9
	return a
}

// TestArtifactTriageRoundTrip: artifacts carrying the optional triage
// section encode deterministically and canonically; the decoded triage
// model scores bit-identically and the band survives in the model config.
func TestArtifactTriageRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		a := withTriage(t, randomArtifact(t, seed), seed*31)
		enc, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(enc, []byte(triageMagic)) {
			t.Fatalf("seed %d: encoded tiered artifact has no triage section", seed)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if dec.Triage == nil {
			t.Fatalf("seed %d: triage model lost in round trip", seed)
		}
		if dec.Model.TriageLo != a.Model.TriageLo || dec.Model.TriageHi != a.Model.TriageHi {
			t.Fatalf("seed %d: band [%v, %v] decoded as [%v, %v]", seed,
				a.Model.TriageLo, a.Model.TriageHi, dec.Model.TriageLo, dec.Model.TriageHi)
		}
		re, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("seed %d: decode→encode not canonical with triage section", seed)
		}

		rng := rand.New(rand.NewSource(seed * 131))
		for _, x := range randomVectors(rng, 32, a.Triage.NumFeatures()) {
			if got, want := dec.Triage.Score(x), a.Triage.Score(x); got != want {
				t.Fatalf("seed %d: decoded triage score %v != %v", seed, got, want)
			}
		}
	}
}

// TestArtifactWithoutTriage: an artifact with no triage model has no
// triage section and decodes with a nil model, while its band — part of
// the model config — is carried and moves the bytes like any other field.
func TestArtifactWithoutTriage(t *testing.T) {
	a := randomArtifact(t, 9)
	plain, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte(triageMagic)) {
		t.Fatal("triage-less artifact grew a triage section")
	}

	banded := randomArtifact(t, 9)
	banded.Model.TriageLo, banded.Model.TriageHi = 0.2, 0.8
	enc, err := banded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain, enc) {
		t.Fatal("the band did not move the model config's bytes")
	}

	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Triage != nil || dec.Model.TriageLo != 0.2 || dec.Model.TriageHi != 0.8 {
		t.Fatalf("triage-less banded artifact decoded as %v [%v, %v], want no model and [0.2, 0.8]",
			dec.Triage, dec.Model.TriageLo, dec.Model.TriageHi)
	}
}

// TestArtifactTriageCorrupt: damage in and around the triage section —
// truncations, garbage trailers, a lying section length — fails with a
// typed error, never a panic. (A truncation exactly at the end of the
// forest is indistinguishable from a valid artifact without a triage
// model, which is the price of an optional trailing section; content
// addressing catches it.)
func TestArtifactTriageCorrupt(t *testing.T) {
	a := withTriage(t, randomArtifact(t, 21), 77)
	enc, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	secStart := bytes.Index(enc, []byte(triageMagic))
	if secStart < 0 {
		t.Fatal("no triage section")
	}

	for cut := secStart + 1; cut < len(enc); cut++ {
		dec, err := Decode(enc[:cut])
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully (%v)", cut, dec.Triage)
		}
		if !isTyped(err) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}

	// Garbage where the section magic should be.
	bad := append([]byte(nil), enc...)
	copy(bad[secStart:], "JUNK")
	if _, err := Decode(bad); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("bad section magic: %v", err)
	}

	// A section length that disagrees with the remaining bytes.
	bad = append([]byte(nil), enc...)
	bad[secStart+len(triageMagic)] ^= 0xFF
	if _, err := Decode(bad); !isTyped(err) {
		t.Fatalf("lying section length: %v", err)
	}

	// Random corruption anywhere in the section: typed error or a clean
	// decode (float bit flips are legal), never a panic.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		bad := append([]byte(nil), enc...)
		i := secStart + rng.Intn(len(bad)-secStart)
		bad[i] ^= byte(1 + rng.Intn(255))
		if _, err := Decode(bad); err != nil && !isTyped(err) {
			t.Fatalf("corruption at byte %d: untyped error %v", i, err)
		}
	}
}
