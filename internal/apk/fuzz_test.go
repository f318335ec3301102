package apk

import (
	"reflect"
	"testing"

	"apichecker/internal/apk/apktest"
	"apichecker/internal/behavior"
)

// addArchiveSeeds seeds an archive fuzzer: a generated archive whole,
// truncated and carrying a v1 blob, non-archives, the first golden
// archives, and one of them under each dex-payload corruption and with
// its dex dropped or declared oversized.
func addArchiveSeeds(f *testing.F) {
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
	golden := goldenArchives(f)
	for _, data := range golden[:4] {
		f.Add(data)
	}
	for _, kind := range corruptionKinds() {
		f.Add(apktest.Corrupt(f, golden[0], "classes.dex", kind))
	}
	f.Add(apktest.Drop(f, golden[0], "classes.dex"))
	f.Add(apktest.Declare(f, golden[0], map[string]uint64{"classes.dex": MaxDecodedBytes + 1}))
}

// FuzzParse hardens APK parsing against corrupt archives: it must reject
// or accept, never panic, and accepted archives must be internally
// consistent.
func FuzzParse(f *testing.F) {
	addArchiveSeeds(f)

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
		if parsed.SHA256 != Digest(data) {
			t.Fatal("accepted APK without its content digest")
		}
		// Both entry points decode the manifest through manifest.Decode, scan
		// or fallback alike: whenever both accept, they read the same one.
		if m, err := ParseManifestOnly(data); err == nil && !reflect.DeepEqual(m, parsed.Manifest) {
			t.Fatalf("ParseManifestOnly diverged from Parse:\n%+v\n%+v", m, parsed.Manifest)
		}
	})
}

// FuzzOpenMatchesParse pins the vet path's accept set against Parse's for
// arbitrary bytes: everything Parse accepts the vet view accepts, reading
// a deeply equal manifest and program; and whatever only the vet view
// accepts, Parse refuses for the dex payload (its inflate or dex.Decode) —
// the handle's own Dex fails with the very error Parse returns — and for
// nothing else.
func FuzzOpenMatchesParse(f *testing.F) {
	addArchiveSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, parseErr := Parse(data)
		a, vetErr := vetView(data)
		if vetErr != nil {
			if parseErr == nil {
				t.Fatalf("Parse accepts what the vet view refuses: %v", vetErr)
			}
			return
		}
		m, _ := a.Manifest()
		prog, _ := a.Program()
		if parseErr == nil {
			if !reflect.DeepEqual(m, parsed.Manifest) || !reflect.DeepEqual(prog, parsed.Program) {
				t.Fatalf("vet view diverged from Parse:\n%+v\n%+v\n%+v\n%+v", m, parsed.Manifest, prog, parsed.Program)
			}
			if d, err := a.Dex(); err != nil || !reflect.DeepEqual(d, parsed.Dex) {
				t.Fatalf("Parse accepted the dex, the handle did not read the same one: %v", err)
			}
			return
		}
		_, dexErr := a.Dex()
		if dexErr == nil || dexErr.Error() != parseErr.Error() {
			t.Fatalf("only the vet view accepts, and not because of the dex payload:\nParse: %v\nDex:   %v", parseErr, dexErr)
		}
	})
}
