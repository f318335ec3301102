package core

import (
	"archive/zip"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/apk/apktest"
	"apichecker/internal/behavior"
	"apichecker/internal/framework"
	"apichecker/internal/pipeline"
)

// swapBehaviorBlob re-zips the archive around a different assets/behavior.bin.
func swapBehaviorBlob(t *testing.T, archive, blob []byte) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(archive), int64(len(archive)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		w, err := zw.Create(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name == "assets/behavior.bin" {
			_, err = w.Write(blob)
		} else {
			var rc io.ReadCloser
			if rc, err = f.Open(); err == nil {
				_, err = io.Copy(w, rc)
				rc.Close()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestVetRejectsIDsOutsideTheUniverse: a well-formed archive whose
// behaviour blob names an API, intent or permission id the deployment's
// universe does not have is a bad APK (422 at the gateway), and the same
// program handed over already decoded is a bad submission. Before the
// pipeline bounded ids, each of these indexed the universe's tables with
// the id and panicked the vet ("index out of range [1073741824] with
// length 3000" under emulator.RunContext).
func TestVetRejectsIDsOutsideTheUniverse(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	const far = 1 << 30
	hostile := map[string]func(*behavior.Program){
		"direct API": func(p *behavior.Program) {
			a := &p.Activities[0]
			a.Direct = append(a.Direct, behavior.APIRate{API: far, Rate: 50})
		},
		"API one past the end": func(p *behavior.Program) {
			a := &p.Activities[0]
			a.Direct = append(a.Direct, behavior.APIRate{API: framework.APIID(testU.NumAPIs()), Rate: 50})
		},
		"reflection API": func(p *behavior.Program) {
			a := &p.Activities[0]
			a.Reflection = append(a.Reflection, behavior.APIRate{API: far, Rate: 50})
		},
		"send-intent": func(p *behavior.Program) {
			a := &p.Activities[0]
			a.SendIntents = append(a.SendIntents, far)
		},
		"payload API": func(p *behavior.Program) {
			p.Payload = &behavior.Payload{Activities: []behavior.ActivityBehavior{{
				Name: "Loaded", ReachRate: 1, Direct: []behavior.APIRate{{API: far, Rate: 50}}}}}
		},
		"receiver intent": func(p *behavior.Program) { p.ReceiverIntents = append(p.ReceiverIntents, far) },
		"permission":      func(p *behavior.Program) { p.Permissions = append(p.Permissions, far) },
	}
	archive, err := apk.Build(corpus.Program(0), testU)
	if err != nil {
		t.Fatal(err)
	}
	good, err := apk.Parse(archive)
	if err != nil {
		t.Fatal(err)
	}
	goodBlob, err := good.Program.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Vet(context.Background(), Submission{Raw: swapBehaviorBlob(t, archive, goodBlob)}); err != nil {
		t.Fatalf("the re-zipped archive with its own blob does not vet: %v", err)
	}

	for name, mutate := range hostile {
		// A fresh decode per case: the mutations must not reach the corpus.
		p, err := behavior.Decode(goodBlob)
		if err != nil {
			t.Fatal(err)
		}
		mutate(p)
		blob, err := p.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := swapBehaviorBlob(t, archive, blob)
		if _, err := apk.Parse(raw); err != nil {
			t.Fatalf("%s: the archive is not well-formed: %v", name, err)
		}
		if _, err := ck.Vet(context.Background(), Submission{Raw: raw}); !errors.Is(err, apk.ErrBadAPK) {
			t.Errorf("%s: Vet(Raw) = %v, want ErrBadAPK", name, err)
		}
		if _, _, err := ck.VetRun(context.Background(), Submission{Raw: raw}); !errors.Is(err, apk.ErrBadAPK) {
			t.Errorf("%s: VetRun(Raw) = %v, want ErrBadAPK", name, err)
		}
		if _, err := ck.Vet(context.Background(), Submission{Program: p}); !errors.Is(err, ErrBadSubmission) {
			t.Errorf("%s: Vet(Program) = %v, want ErrBadSubmission", name, err)
		}
	}
}

// TestHostileCorruptDexIsVetted: an archive whose dex payload is damaged —
// its directory record sound — is vetted on its manifest and behaviour
// blob, which is what the emulator runs: package and version from the
// manifest, tier 2, and the same verdict from a second fresh checker. The
// digest differs from the intact archive's, so its Monkey stream (and
// possibly its verdict) legitimately does too. Everything that analyses
// code still refuses the bytes.
func TestHostileCorruptDexIsVetted(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	again, _ := trainedChecker(t, 120)
	p := corpus.Program(5)
	archive, err := apk.Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	for kind := range apktest.Corruptions {
		raw := apktest.Corrupt(t, archive, "classes.dex", kind)
		if _, err := apk.Parse(raw); !errors.Is(err, apk.ErrBadAPK) {
			t.Fatalf("%s: apk.Parse = %v, want ErrBadAPK", kind, err)
		}
		v, err := ck.Vet(context.Background(), Submission{Raw: raw})
		if err != nil {
			t.Errorf("%s: Vet = %v, want a verdict", kind, err)
			continue
		}
		if v.Package != p.PackageName || v.VersionCode != p.Version || v.Tier != 2 {
			t.Errorf("%s: verdict %+v, want %s v%d at tier 2", kind, v, p.PackageName, p.Version)
		}
		sum := sha256.Sum256(raw)
		if v.Digest != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: verdict Digest %s is not the submitted bytes'", kind, v.Digest)
		}
		w, err := again.Vet(context.Background(), Submission{Raw: raw})
		if err != nil || !reflect.DeepEqual(v, w) {
			t.Errorf("%s: a second fresh checker disagrees: %+v (%v), want %+v", kind, w, err, v)
		}
		if _, _, err := ck.VetRun(context.Background(), Submission{Raw: raw}); err != nil {
			t.Errorf("%s: VetRun = %v", kind, err)
		}
	}
}

// TestHostileDexDirectoryRecordOnVetPath: the vet path never inflates the
// dex but still holds its directory record to account — missing, declaring
// more than apk.MaxDecodedBytes, over the bound only together with the
// entries that are inflated, or wrapping a summed uint64 — with triage off
// and with an archive the triage tier passes down.
func TestHostileDexDirectoryRecordOnVetPath(t *testing.T) {
	tiered, flat, corpus := tieredAndFlat(t, 120)
	archive, parsed, err := apk.BuildAndParse(corpus.Program(6), testU)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := parsed.Program.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		raw       []byte
		oversized bool
	}{
		{"missing", apktest.Drop(t, archive, "classes.dex"), false},
		{"oversized", apktest.Declare(t, archive, map[string]uint64{"classes.dex": apk.MaxDecodedBytes + 1}), true},
		{"oversized together", apktest.Declare(t, archive, map[string]uint64{
			"classes.dex": apk.MaxDecodedBytes - uint64(len(blob))}), true},
		{"wrapping", apktest.Declare(t, archive, map[string]uint64{
			"classes.dex": 1 << 63, "assets/behavior.bin": 1 << 63}), true},
	}
	for _, tc := range cases {
		_, err := flat.Vet(context.Background(), Submission{Raw: tc.raw})
		if !errors.Is(err, apk.ErrBadAPK) || errors.Is(err, apk.ErrOversized) != tc.oversized {
			t.Errorf("%s: Vet = %v, want ErrBadAPK (ErrOversized %v)", tc.name, err, tc.oversized)
		}
		if stage, _ := pipeline.FailedStage(err); stage != pipeline.StageDecode {
			t.Errorf("%s: died in stage %q, want decode", tc.name, stage)
		}
		// The tier-1 pre-screen reads the manifest alone, as it always has;
		// whatever it does not answer itself dies in decode all the same.
		v, err := tiered.Vet(context.Background(), Submission{Raw: tc.raw})
		if err == nil && v.Tier != 1 {
			t.Errorf("%s: tiered checker answered at tier %d", tc.name, v.Tier)
		}
		if err != nil && !errors.Is(err, apk.ErrBadAPK) {
			t.Errorf("%s: tiered Vet = %v, want ErrBadAPK", tc.name, err)
		}
	}
}

// TestHostileVetPathNeverDecodesTheDex: decode takes the vet-path view —
// the manifest triage decoded and the behaviour blob, no dex — from the one
// handle on the context, and a tier-1 answer decodes nothing.
func TestHostileVetPathNeverDecodesTheDex(t *testing.T) {
	tiered, _, corpus := tieredAndFlat(t, 120)
	for i := 0; i < 40; i++ {
		raw, err := apk.Build(corpus.Program(i), testU)
		if err != nil {
			t.Fatal(err)
		}
		sub := Submission{Raw: raw}
		vc := pipeline.AcquireContext(context.Background(), &sub)
		if err := tiered.deps.Vet(vc); err != nil {
			t.Fatal(err)
		}
		if vc.Verdict.Tier != 2 {
			if vc.Program != nil {
				t.Errorf("app %d: a tier-1 answer decoded the archive", i)
			}
			pipeline.ReleaseContext(vc)
			continue
		}
		// An in-band submission: triage opened the handle, decode reused it.
		if m, err := vc.Archive.Manifest(); err != nil || m != vc.Manifest {
			t.Errorf("app %d: decode did not take the manifest triage decoded", i)
		}
		full, err := apk.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vc.Manifest, full.Manifest) || !reflect.DeepEqual(vc.Program, full.Program) {
			t.Errorf("app %d: vet-path view differs from Parse:\n%+v %+v\n%+v %+v", i, vc.Manifest, vc.Program, full.Manifest, full.Program)
		}
		pipeline.ReleaseContext(vc)
		return
	}
	t.Fatal("no in-band submission among 40 apps; widen the test band")
}
