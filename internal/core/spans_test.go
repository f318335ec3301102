package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/obs"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
)

// span is one stage span as the sequence table pins it: the stage, its
// outcome note, and whether the span books the vet's error.
type span struct {
	stage string
	note  string
	err   bool
}

func (s span) String() string {
	if s.err {
		return s.stage + "/" + s.note + "/err"
	}
	return s.stage + "/" + s.note
}

// spanLog is an obs sink keeping every span a checker emits, in order.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) Emit(ev obs.Event) {
	if ev.Kind != obs.KindSpan {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ev.Name, ev.Note, ev.Err != nil})
	l.mu.Unlock()
}

func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// engineNote stands in the table for the emulate span's note, which is the
// engine that ran: the verdict's Engine.
const engineNote = "<engine>"

// TestVetSpanSequence pins the exact span sequence every vet path emits —
// stage, note, and which span owns the error — so the drivers behind Vet,
// VetRun and AnswerHit can change shape without changing what an operator
// sees. A bracketing stage (cache.lookup, triage) emits its span after the
// stages inside it, and never books their error: the innermost stage that
// failed owns it, deadline expiry is normalised to ErrDeadlineExceeded
// (still matching context.DeadlineExceeded), and cancellation passes
// through as context.Canceled.
func TestVetSpanSequence(t *testing.T) {
	tiered, flat, corpus := tieredAndFlat(t, 120)
	bcfg := flat.Config()
	bcfg.VerdictCache = -1
	bypass, err := NewFromParts(flat.Parts(), bcfg)
	if err != nil {
		t.Fatal(err)
	}
	logs := map[*Checker]*spanLog{}
	for _, ck := range []*Checker{flat, tiered, bypass} {
		logs[ck] = &spanLog{}
		ck.Obs().AddSink(logs[ck])
	}

	raws := make([][]byte, corpus.Len())
	for i := range raws {
		if raws[i], err = apk.Build(corpus.Program(i), testU); err != nil {
			t.Fatal(err)
		}
	}
	// Which archives the tiered checker answers at tier 1 and which fall in
	// its band, found on a private copy so the recorded checker starts cold.
	probe, err := NewFromParts(tiered.Parts(), tiered.Config())
	if err != nil {
		t.Fatal(err)
	}
	hitAt, bandAt := -1, -1
	for i, raw := range raws {
		v, err := probe.Vet(context.Background(), Submission{Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		if v.Tier == 1 && hitAt < 0 {
			hitAt = i
		}
		if v.Tier == 2 && bandAt < 0 {
			bandAt = i
		}
	}
	if hitAt < 0 || bandAt < 0 {
		t.Fatalf("no tier-1 (%d) or in-band (%d) archive among %d", hitAt, bandAt, len(raws))
	}

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()

	vet := func(ck *Checker, ctx context.Context, sub Submission) func() (*Verdict, vcache.Outcome, error) {
		return func() (*Verdict, vcache.Outcome, error) { return ck.VetOutcome(ctx, sub) }
	}
	vetRun := func(ck *Checker, sub Submission) func() (*Verdict, vcache.Outcome, error) {
		return func() (*Verdict, vcache.Outcome, error) {
			v, _, err := ck.VetRun(context.Background(), sub)
			return v, vcache.OutcomeBypass, err
		}
	}
	answerHit := func(ck *Checker, sub Submission) func() (*Verdict, vcache.Outcome, error) {
		return func() (*Verdict, vcache.Outcome, error) {
			h, ok := ck.LookupHit(&sub)
			if !ok {
				return nil, vcache.OutcomeBypass, errors.New("LookupHit found nothing")
			}
			v, err := ck.AnswerHit(context.Background(), sub, h)
			return v, vcache.OutcomeHit, err
		}
	}
	tier2 := func(decode, triage, lookup string) []span {
		return []span{
			{pipeline.StageAdmit, "", false},
			{pipeline.StageDecode, decode, false},
			{pipeline.StageEmulate, engineNote, false},
			{pipeline.StageExtract, "", false},
			{pipeline.StageInfer, "", false},
			{pipeline.StageTriage, triage, false},
			{pipeline.StageCacheLookup, lookup, false},
		}
	}
	answered := []span{{pipeline.StageAdmit, "", false}, {pipeline.StageCacheLookup, "hit", false}}
	ran := []span{
		{pipeline.StageAdmit, "", false},
		{pipeline.StageDecode, "raw", false},
		{pipeline.StageEmulate, engineNote, false},
		{pipeline.StageExtract, "", false},
		{pipeline.StageInfer, "", false},
		{pipeline.StageCacheStore, "stored", false},
	}
	notZip := Submission{Raw: []byte("not an apk")}

	// The steps run in order on shared checkers: the hits answer from the
	// misses before them.
	for _, tc := range []struct {
		name    string
		ck      *Checker
		run     func() (*Verdict, vcache.Outcome, error)
		want    []span
		outcome vcache.Outcome
		// failed is the stage the error is attributed to, empty on
		// success; is lists the errors it must match.
		failed string
		is     []error
	}{
		{name: "flat miss", ck: flat, run: vet(flat, context.Background(), Submission{Raw: raws[0]}),
			want: tier2("raw", "off", "miss"), outcome: vcache.OutcomeMiss},
		{name: "cache hit inside Vet", ck: flat, run: vet(flat, context.Background(), Submission{Raw: raws[0]}),
			want: answered, outcome: vcache.OutcomeHit},
		{name: "AnswerHit", ck: flat, run: answerHit(flat, Submission{Raw: raws[0]}),
			want: answered, outcome: vcache.OutcomeHit},
		{name: "program miss", ck: flat, run: vet(flat, context.Background(), Submission{Program: corpus.Program(1)}),
			want: tier2("program", "off", "miss"), outcome: vcache.OutcomeMiss},
		{name: "VetRun stores", ck: flat, run: vetRun(flat, Submission{Raw: raws[2]}),
			want: ran, outcome: vcache.OutcomeBypass},
		{name: "VetRun again", ck: flat, run: vetRun(flat, Submission{Raw: raws[2]}),
			want: ran, outcome: vcache.OutcomeBypass},
		{name: "hit after VetRun", ck: flat, run: vet(flat, context.Background(), Submission{Raw: raws[2]}),
			want: answered, outcome: vcache.OutcomeHit},
		{name: "flat non-zip body", ck: flat, run: vet(flat, context.Background(), notZip),
			want: []span{
				{pipeline.StageAdmit, "", false},
				{pipeline.StageDecode, "", true},
				{pipeline.StageTriage, "off", false},
				{pipeline.StageCacheLookup, "miss", false},
			},
			outcome: vcache.OutcomeMiss, failed: pipeline.StageDecode, is: []error{apk.ErrBadAPK}},
		{name: "deadline expired at emulate", ck: flat, run: vet(flat, expired, Submission{Raw: raws[3]}),
			want: []span{
				{pipeline.StageAdmit, "", false},
				{pipeline.StageDecode, "raw", false},
				{pipeline.StageEmulate, "", true},
				{pipeline.StageTriage, "off", false},
				{pipeline.StageCacheLookup, "miss", false},
			},
			outcome: vcache.OutcomeMiss, failed: pipeline.StageEmulate,
			is: []error{ErrDeadlineExceeded, context.DeadlineExceeded}},
		{name: "cancelled context", ck: flat, run: vet(flat, canceled, Submission{Program: corpus.Program(4)}),
			want: []span{
				{pipeline.StageAdmit, "", false},
				{pipeline.StageDecode, "program", false},
				{pipeline.StageEmulate, "", true},
				{pipeline.StageTriage, "off", false},
				{pipeline.StageCacheLookup, "miss", false},
			},
			outcome: vcache.OutcomeMiss, failed: pipeline.StageEmulate, is: []error{context.Canceled}},
		{name: "tiered miss in band", ck: tiered, run: vet(tiered, context.Background(), Submission{Raw: raws[bandAt]}),
			want: tier2("raw", "band", "miss"), outcome: vcache.OutcomeMiss},
		{name: "triage hit", ck: tiered, run: vet(tiered, context.Background(), Submission{Raw: raws[hitAt]}),
			want: []span{
				{pipeline.StageAdmit, "", false},
				{pipeline.StageTriage, "hit", false},
				{pipeline.StageCacheLookup, "miss", false},
			},
			outcome: vcache.OutcomeMiss},
		{name: "triage hit answered from cache", ck: tiered, run: vet(tiered, context.Background(), Submission{Raw: raws[hitAt]}),
			want: answered, outcome: vcache.OutcomeHit},
		{name: "tiered non-zip body", ck: tiered, run: vet(tiered, context.Background(), notZip),
			want: []span{
				{pipeline.StageAdmit, "", false},
				{pipeline.StageTriage, "", true},
				{pipeline.StageCacheLookup, "miss", false},
			},
			outcome: vcache.OutcomeMiss, failed: pipeline.StageTriage, is: []error{apk.ErrBadAPK}},
		{name: "cache disabled", ck: bypass, run: vet(bypass, context.Background(), Submission{Raw: raws[0]}),
			want: tier2("raw", "off", "bypass"), outcome: vcache.OutcomeBypass},
		{name: "invalid submission", ck: flat, run: vet(flat, context.Background(), Submission{}),
			want:    []span{{pipeline.StageAdmit, "", true}},
			outcome: vcache.OutcomeBypass, failed: pipeline.StageAdmit, is: []error{ErrBadSubmission}},
	} {
		v, out, err := tc.run()
		got := logs[tc.ck].take()
		want := append([]span(nil), tc.want...)
		for i := range want {
			if want[i].note == engineNote && v != nil {
				want[i].note = v.Engine
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: spans\n got  %v\n want %v", tc.name, got, want)
		}
		if out != tc.outcome {
			t.Errorf("%s: outcome %v, want %v", tc.name, out, tc.outcome)
		}
		if tc.failed == "" {
			if err != nil || v == nil {
				t.Errorf("%s: verdict %v, err %v", tc.name, v, err)
			}
			continue
		}
		if v != nil || err == nil {
			t.Errorf("%s: verdict %v, err %v; want a failure", tc.name, v, err)
			continue
		}
		if stage, ok := pipeline.FailedStage(err); !ok || stage != tc.failed {
			t.Errorf("%s: failed in %q/%v, want %q", tc.name, stage, ok, tc.failed)
		}
		for _, target := range tc.is {
			if !errors.Is(err, target) {
				t.Errorf("%s: err %v does not match %v", tc.name, err, target)
			}
		}
		if errors.Is(err, context.Canceled) && errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("%s: cancellation normalised to a deadline: %v", tc.name, err)
		}
	}

	// The collector's aggregates follow the spans: first-seen order is the
	// first miss's emission order, and only the owning stages count errors.
	var order []string
	errs := map[string]uint64{}
	for _, st := range flat.StageStats() {
		order = append(order, st.Stage)
		errs[st.Stage] = st.Errors
	}
	wantOrder := []string{
		pipeline.StageAdmit, pipeline.StageDecode, pipeline.StageEmulate, pipeline.StageExtract,
		pipeline.StageInfer, pipeline.StageTriage, pipeline.StageCacheLookup, pipeline.StageCacheStore,
	}
	if fmt.Sprint(order) != fmt.Sprint(wantOrder) {
		t.Errorf("StageStats order %v, want %v", order, wantOrder)
	}
	wantErrs := map[string]uint64{
		pipeline.StageAdmit: 1, pipeline.StageDecode: 1, pipeline.StageEmulate: 2,
		pipeline.StageExtract: 0, pipeline.StageInfer: 0, pipeline.StageTriage: 0,
		pipeline.StageCacheLookup: 0, pipeline.StageCacheStore: 0,
	}
	if !reflect.DeepEqual(errs, wantErrs) {
		t.Errorf("StageStats errors %v, want %v", errs, wantErrs)
	}
}
