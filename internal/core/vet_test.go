package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"apichecker/internal/apk"
)

func TestSubmissionValidate(t *testing.T) {
	_, corpus := trainedChecker(t, 120)
	p := corpus.Program(0)
	raw, err := apk.Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}

	good := []Submission{
		{Raw: raw},
		{Program: p},
		{Program: p, Seq: 7},
	}
	for i, sub := range good {
		if err := sub.Validate(); err != nil {
			t.Errorf("good[%d]: Validate() = %v", i, err)
		}
	}

	bad := []Submission{
		{},
		{Raw: raw, Program: p},
	}
	for i, sub := range bad {
		if err := sub.Validate(); !errors.Is(err, ErrBadSubmission) {
			t.Errorf("bad[%d]: Validate() = %v, want ErrBadSubmission", i, err)
		}
	}
	// Vet surfaces validation failures without consuming a sequence
	// number.
	ck, _ := trainedChecker(t, 120)
	before := ck.VetCount()
	if _, err := ck.Vet(context.Background(), Submission{}); !errors.Is(err, ErrBadSubmission) {
		t.Fatalf("Vet(empty) = %v, want ErrBadSubmission", err)
	}
	if ck.VetCount() != before {
		t.Error("invalid submission consumed a vet sequence number")
	}
}

// TestSubmissionPayloadsMatchVet pins the canonical-surface contract:
// the same app yields bit-identical verdicts through Vet whichever
// payload form the Submission carries, at the same sequence number.
func TestSubmissionPayloadsMatchVet(t *testing.T) {
	ckA, corpus := trainedChecker(t, 120)
	ckB, _ := trainedChecker(t, 120)
	p := corpus.Program(3)

	va, err := ckA.Vet(context.Background(), Submission{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	vb, err := ckB.Vet(context.Background(), Submission{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Errorf("Vet diverged across fresh checkers:\n%+v\n%+v", va, vb)
	}

	vs, err := ckA.Vet(context.Background(), Submission{Program: p, Seq: 42})
	if err != nil {
		t.Fatal(err)
	}
	vq, err := ckB.Vet(context.Background(), Submission{Program: p, Seq: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, vq) {
		t.Errorf("Vet diverged across checkers with pinned Seq")
	}

	raw, err := apk.Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := ckA.Vet(context.Background(), Submission{Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := ckB.Vet(context.Background(), Submission{Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vr, vp) {
		t.Errorf("Raw-payload Vet diverged across fresh checkers")
	}
}

func TestVetDeadlineExceeded(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()

	_, err := ck.Vet(ctx, Submission{Program: corpus.Program(0)})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Vet(expired ctx) = %v, want ErrDeadlineExceeded", err)
	}
	// The sentinel chains down to the stdlib cause so callers can match
	// either.
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v does not wrap context.DeadlineExceeded", err)
	}

	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := ck.Vet(canceled, Submission{Program: corpus.Program(0)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Vet(canceled ctx) = %v, want context.Canceled", err)
	}
}

func TestVetBadAPK(t *testing.T) {
	ck, _ := trainedChecker(t, 120)
	_, err := ck.Vet(context.Background(), Submission{Raw: []byte("not an apk")})
	if !errors.Is(err, apk.ErrBadAPK) {
		t.Fatalf("Vet(garbage) = %v, want ErrBadAPK", err)
	}
	if _, err := ck.Vet(context.Background(), Submission{Raw: []byte{0x50, 0x4b}}); !errors.Is(err, apk.ErrBadAPK) {
		t.Fatalf("Vet(truncated archive) = %v, want ErrBadAPK", err)
	}
}
