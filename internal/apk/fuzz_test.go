package apk

import (
	"reflect"
	"testing"

	"apichecker/internal/behavior"
)

// FuzzParse hardens APK parsing against corrupt archives: it must reject
// or accept, never panic, and accepted archives must be internally
// consistent.
func FuzzParse(f *testing.F) {
	p := testGen.Generate(behavior.Spec{
		PackageName: "com.fuzz.seed", Version: 1, Seed: 99,
		Label: behavior.Benign, Category: behavior.CategoryTool,
	})
	good, err := Build(p, testU)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("PK\x03\x04 not really a zip"))
	if len(good) > 64 {
		f.Add(good[:64])
	}
	f.Add(withV1Blob(f, good))

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := Parse(data)
		if err != nil {
			return
		}
		if parsed.Manifest == nil || parsed.Dex == nil || parsed.Program == nil {
			t.Fatal("accepted APK with missing parts")
		}
		if parsed.PackageName() != parsed.Program.PackageName {
			t.Fatal("accepted APK with inconsistent identity")
		}
		if len(parsed.MD5) != 32 {
			t.Fatal("accepted APK without identity hash")
		}
		// Both entry points decode the manifest through manifest.Decode, scan
		// or fallback alike: whenever both accept, they read the same one.
		if m, err := ParseManifestOnly(data); err == nil && !reflect.DeepEqual(m, parsed.Manifest) {
			t.Fatalf("ParseManifestOnly diverged from Parse:\n%+v\n%+v", m, parsed.Manifest)
		}
	})
}
