package apk

import (
	"errors"
	"reflect"
	"testing"

	"apichecker/internal/apk/apktest"
	"apichecker/internal/behavior"
)

// TestParseManifestOnlyMatchesFullParse: the fast path must decode the
// same manifest the full arena parse does, byte for byte of meaning.
func TestParseManifestOnlyMatchesFullParse(t *testing.T) {
	p := program(12, behavior.Malicious, behavior.FamilySMSFraud)
	data, parsed, err := BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseManifestOnly(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, parsed.Manifest) {
		t.Errorf("manifest-only parse diverged from full parse:\n%+v\n%+v", m, parsed.Manifest)
	}
}

func TestParseManifestOnlyRejectsGarbage(t *testing.T) {
	if _, err := ParseManifestOnly([]byte("definitely not a zip")); !errors.Is(err, ErrBadAPK) {
		t.Errorf("ParseManifestOnly(garbage) = %v, want ErrBadAPK", err)
	}
}

func TestParseManifestOnlyRejectsMissingManifest(t *testing.T) {
	p := program(13, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	stripped := apktest.Drop(t, data, "AndroidManifest.xml")
	if _, err := ParseManifestOnly(stripped); !errors.Is(err, ErrBadAPK) {
		t.Errorf("ParseManifestOnly(no manifest) = %v, want ErrBadAPK", err)
	}
}

// TestParseManifestOnlyRejectsOversizedDeclaration: the fast path carries
// the same zip-bomb gate as Parse — a lying manifest declaration is
// rejected before any allocation.
func TestParseManifestOnlyRejectsOversizedDeclaration(t *testing.T) {
	p := program(14, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	bomb := apktest.Declare(t, data, map[string]uint64{"AndroidManifest.xml": MaxDecodedBytes + 1})
	_, err = ParseManifestOnly(bomb)
	if !errors.Is(err, ErrOversized) || !errors.Is(err, ErrBadAPK) {
		t.Errorf("ParseManifestOnly(bomb) = %v, want ErrOversized wrapped in ErrBadAPK", err)
	}
	// A dex bomb is invisible to the manifest-only path — it never touches
	// that entry.
	dexBomb := apktest.Declare(t, data, map[string]uint64{"classes.dex": MaxDecodedBytes + 1})
	if _, err := ParseManifestOnly(dexBomb); err != nil {
		t.Errorf("ParseManifestOnly ignored-entry bomb: %v", err)
	}
}

// TestParseManifestOnlyRejectsSizeLie: a manifest entry longer than its
// declared size is a corrupt directory, same as the full parse.
func TestParseManifestOnlyRejectsSizeLie(t *testing.T) {
	p := program(15, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	short := apktest.Declare(t, data, map[string]uint64{"AndroidManifest.xml": 1})
	if _, err := ParseManifestOnly(short); !errors.Is(err, ErrBadAPK) {
		t.Errorf("ParseManifestOnly(size lie) = %v, want ErrBadAPK", err)
	}
}

// BenchmarkParseManifestOnly vs BenchmarkParseFull: the triage tier's
// decode saving — the fast path skips dex + behaviour + arena work.
func BenchmarkParseManifestOnly(b *testing.B) {
	data := benchArchive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseManifestOnly(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseFull(b *testing.B) {
	data := benchArchive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchArchive(b *testing.B) []byte {
	b.Helper()
	p := testGen.Generate(behavior.Spec{
		PackageName: "com.apk.bench", Version: 3, Seed: 99,
		Label: behavior.Malicious, Family: behavior.FamilySpyware,
		Category: behavior.CategoryMedia,
	})
	data, err := Build(p, testU)
	if err != nil {
		b.Fatal(err)
	}
	return data
}
