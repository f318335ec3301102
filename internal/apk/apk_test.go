package apk

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"apichecker/internal/apk/apktest"
	"apichecker/internal/behavior"
	"apichecker/internal/framework"
)

var (
	testU   = framework.MustGenerate(framework.TestConfig(3000))
	testGen = behavior.NewGenerator(testU)
)

func program(seed int64, label behavior.Label, fam behavior.Family) *behavior.Program {
	return testGen.Generate(behavior.Spec{
		PackageName: "com.apk.test",
		Version:     2,
		Seed:        seed,
		Label:       label,
		Family:      fam,
		Category:    behavior.CategoryMedia,
	})
}

func TestBuildParseRoundTrip(t *testing.T) {
	p := program(5, behavior.Malicious, behavior.FamilySMSFraud)
	data, parsed, err := BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.PackageName() != p.PackageName || parsed.VersionCode() != p.Version {
		t.Errorf("identity = %s/%d", parsed.PackageName(), parsed.VersionCode())
	}
	if parsed.Size != int64(len(data)) {
		t.Errorf("Size = %d, want %d", parsed.Size, len(data))
	}
	if parsed.SHA256 != Digest(data) || len(parsed.SHA256) != 64 {
		t.Errorf("SHA256 = %q", parsed.SHA256)
	}
	if len(parsed.Program.Activities) != len(p.Activities) {
		t.Errorf("activities = %d, want %d", len(parsed.Program.Activities), len(p.Activities))
	}
	if len(parsed.Manifest.Permissions) != len(p.Permissions) {
		t.Errorf("permissions = %d, want %d", len(parsed.Manifest.Permissions), len(p.Permissions))
	}
}

func TestBuildDeterministic(t *testing.T) {
	p := program(9, behavior.Benign, behavior.FamilyNone)
	a, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Build is not deterministic")
	}
}

func TestDigestDistinguishesApps(t *testing.T) {
	p1 := program(1, behavior.Benign, behavior.FamilyNone)
	p2 := program(2, behavior.Benign, behavior.FamilyNone)
	_, a1, err := BuildAndParse(p1, testU)
	if err != nil {
		t.Fatal(err)
	}
	_, a2, err := BuildAndParse(p2, testU)
	if err != nil {
		t.Fatal(err)
	}
	// Same package name, different content: different apps (§4.1).
	if a1.PackageName() != a2.PackageName() {
		t.Fatal("test setup: packages differ")
	}
	if a1.SHA256 == a2.SHA256 {
		t.Error("different content produced identical content-digest identity")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("definitely not a zip")); err == nil {
		t.Error("Parse accepted non-zip input")
	}
}

func TestParseRejectsMissingEntries(t *testing.T) {
	p := program(3, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the zip without classes.dex.
	stripped := apktest.Drop(t, data, "classes.dex")
	if _, err := Parse(stripped); err == nil {
		t.Error("Parse accepted APK without classes.dex")
	}
	stripped = apktest.Drop(t, data, "assets/behavior.bin")
	if _, err := Parse(stripped); err == nil {
		t.Error("Parse accepted APK without behavior.bin")
	}
}

func TestNativeLibsPackaged(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := program(seed, behavior.Benign, behavior.FamilyNone)
		if len(p.NativeLibs) == 0 {
			continue
		}
		data, err := Build(p, testU)
		if err != nil {
			t.Fatal(err)
		}
		for _, lib := range p.NativeLibs {
			if !zipHasEntry(t, data, lib) {
				t.Errorf("native lib %s missing from archive", lib)
			}
		}
		return
	}
	t.Skip("no generated program carried native libs")
}

func TestSignaturePresent(t *testing.T) {
	p := program(4, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	if !zipHasEntry(t, data, "META-INF/MANIFEST.MF") {
		t.Error("signature manifest missing")
	}
}

// withV1Blob returns the archive with its assets/behavior.bin replaced by
// a version 1 (gob) behaviour blob: testdata/behavior_v1.bin is the blob
// of goldenArchives' first archive as the last gob-writing commit
// (b58f962) built it.
func withV1Blob(tb testing.TB, archive []byte) []byte {
	tb.Helper()
	v1, err := os.ReadFile("testdata/behavior_v1.bin")
	if err != nil {
		tb.Fatal(err)
	}
	return rezip(tb, archive, "assets/behavior.bin", v1)
}

// TestParseRejectsGobBlob: there is one behaviour-blob reader. An archive
// from before blob v2 is a bad APK whose error names the version wanted,
// not a fallback to a second decoder.
func TestParseRejectsGobBlob(t *testing.T) {
	archive := goldenArchives(t)[0]
	if _, err := Parse(rezip(t, archive, "resources.arsc", []byte("re-zipped"))); err != nil {
		t.Fatalf("a re-zipped archive with its v2 blob no longer parses: %v", err)
	}
	_, err := Parse(withV1Blob(t, archive))
	if !errors.Is(err, ErrBadAPK) {
		t.Fatalf("Parse of an archive with a v1 blob = %v, want ErrBadAPK", err)
	}
	if !strings.Contains(err.Error(), "version 2 behaviour blob") {
		t.Errorf("error %q does not name the blob version", err)
	}
}
