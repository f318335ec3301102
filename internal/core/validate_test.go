package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/emulator"
	"apichecker/internal/hook"
	"apichecker/internal/monkey"
)

// countValidations counts behavior.Validate calls until the test ends.
func countValidations(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	hook := func(*behavior.Program) { n.Add(1) }
	behavior.ValidateHook.Store(&hook)
	t.Cleanup(func() { behavior.ValidateHook.Store(nil) })
	return &n
}

// f64 is v's eight bytes as the behaviour blob writes a float.
func f64(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }

// TestInvalidProgramRefusedAlike: a program that fails Validate — a rate
// that is NaN, an activity named twice — is refused with an error wrapping
// behavior.ErrInvalid on all three ways in: inside a raw archive (a bad
// APK: the blob decoder validates), as a Submission.Program (a bad
// submission: admission validates) and handed to emulator.Run (which
// validates the programs nothing has). The vet path's emulate step
// validates nothing itself.
func TestInvalidProgramRefusedAlike(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	archive, err := apk.Build(corpus.Program(0), testU)
	if err != nil {
		t.Fatal(err)
	}
	good, err := apk.Parse(archive)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := good.Program.Encode()
	if err != nil {
		t.Fatal(err)
	}
	emu := emulator.New(emulator.LightweightEmulator, hook.MustNewRegistry(testU, nil))
	const marker = 0.3141592653589793 // a rate the blob holds once
	for _, tc := range []struct {
		name string
		// valid makes the program encodable; invalid breaks it the way
		// old → new breaks its blob.
		valid, invalid func(*behavior.Program)
		old, new       []byte
	}{
		{
			"a NaN rate",
			func(p *behavior.Program) {
				a := &p.Activities[1]
				a.Direct = append(a.Direct, behavior.APIRate{API: 0, Rate: marker})
			},
			func(p *behavior.Program) {
				a := &p.Activities[1]
				a.Direct[len(a.Direct)-1].Rate = math.NaN()
			},
			f64(marker), f64(math.NaN()),
		},
		{
			"a duplicate activity",
			func(p *behavior.Program) { p.Activities[1].Name = "com.twice.Other" },
			func(p *behavior.Program) { p.Activities[1].Name = p.Activities[0].Name },
			[]byte("com.twice.Other"), nil, // the launcher's name, set below
		},
	} {
		p, err := behavior.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		tc.valid(p)
		if tc.new == nil {
			p.Activities[0].Name = "com.twice.First"
			tc.new = []byte(p.Activities[0].Name)
		}
		validBlob, err := p.Encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if bytes.Count(validBlob, tc.old) != 1 {
			t.Fatalf("%s: the blob holds %q %d times, want once", tc.name, tc.old, bytes.Count(validBlob, tc.old))
		}
		raw := swapBehaviorBlob(t, archive, bytes.Replace(validBlob, tc.old, tc.new, 1))
		tc.invalid(p)
		if err := p.Validate(); !errors.Is(err, behavior.ErrInvalid) {
			t.Fatalf("%s: Validate = %v, want ErrInvalid", tc.name, err)
		}

		_, err = ck.Vet(context.Background(), Submission{Raw: raw})
		if !errors.Is(err, behavior.ErrInvalid) || !errors.Is(err, apk.ErrBadAPK) {
			t.Errorf("%s: Vet(Raw) = %v, want ErrInvalid and ErrBadAPK", tc.name, err)
		}
		_, err = ck.Vet(context.Background(), Submission{Program: p})
		if !errors.Is(err, behavior.ErrInvalid) || !errors.Is(err, ErrBadSubmission) {
			t.Errorf("%s: Vet(Program) = %v, want ErrInvalid and ErrBadSubmission", tc.name, err)
		}
		if _, err := emu.Run(p, monkey.ProductionConfig(1)); !errors.Is(err, behavior.ErrInvalid) {
			t.Errorf("%s: emulator.Run = %v, want ErrInvalid", tc.name, err)
		}
	}
}

// TestMissValidatesOnce: a raw archive the cache does not hold is
// validated once, by the blob decoder — not again by the emulate step, nor
// by the fallback engine's re-run of an app the lightweight engine cannot
// run — and its verdict is what it was.
func TestMissValidatesOnce(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	fresh, _ := trainedChecker(t, 120)
	validations := countValidations(t)
	fellBack := 0
	for i := range corpus.Apps {
		raw, err := apk.Build(corpus.Program(i), testU)
		if err != nil {
			t.Fatal(err)
		}
		validations.Store(0)
		v, run, err := fresh.VetRun(context.Background(), Submission{Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		if n := validations.Load(); n != 1 {
			t.Fatalf("app %d: a miss validated its program %d times, want 1", i, n)
		}
		if run.FellBack {
			fellBack++
		}
		want, err := ck.Vet(context.Background(), Submission{Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		if v.Score != want.Score || v.Malicious != want.Malicious {
			t.Fatalf("app %d: verdict %+v, another checker's %+v", i, v, want)
		}
	}
	if fellBack == 0 {
		t.Error("no app fell back to the second engine: the re-run went unchecked")
	}
	t.Logf("%d misses, %d re-run on the fallback engine, one validation each", len(corpus.Apps), fellBack)
}

// TestProgramValidatesOnce: a Submission.Program is validated once per vet,
// at admission. Its content digest and its manifest, in triage or in
// decode, are derived without validating it again, on a miss and on a
// cache hit alike.
func TestProgramValidatesOnce(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	validations := countValidations(t)
	for i := range corpus.Apps {
		blob, err := corpus.Program(i).Encode()
		if err != nil {
			t.Fatal(err)
		}
		p, err := behavior.Decode(blob) // a program whose digest nothing has taken
		if err != nil {
			t.Fatal(err)
		}
		for _, round := range []string{"miss", "hit"} {
			validations.Store(0)
			if _, err := ck.Vet(context.Background(), Submission{Program: p}); err != nil {
				t.Fatal(err)
			}
			if n := validations.Load(); n != 1 {
				t.Fatalf("app %d, %s: a vet validated its program %d times, want 1", i, round, n)
			}
		}
	}
}
