package core

import (
	"archive/zip"
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/framework"
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
		parsed, err := apk.Parse(raw)
		if err != nil {
			t.Fatalf("%s: the archive is not well-formed: %v", name, err)
		}
		if _, err := ck.Vet(context.Background(), Submission{Raw: raw}); !errors.Is(err, apk.ErrBadAPK) {
			t.Errorf("%s: Vet(Raw) = %v, want ErrBadAPK", name, err)
		}
		if _, _, err := ck.VetRun(context.Background(), Submission{Raw: raw}); !errors.Is(err, apk.ErrBadAPK) {
			t.Errorf("%s: VetRun(Raw) = %v, want ErrBadAPK", name, err)
		}
		if _, err := ck.Vet(context.Background(), Submission{Parsed: parsed}); !errors.Is(err, ErrBadSubmission) {
			t.Errorf("%s: Vet(Parsed) = %v, want ErrBadSubmission", name, err)
		}
		if _, err := ck.Vet(context.Background(), Submission{Program: p}); !errors.Is(err, ErrBadSubmission) {
			t.Errorf("%s: Vet(Program) = %v, want ErrBadSubmission", name, err)
		}
	}
}
