package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"apichecker/internal/adb"
	"apichecker/internal/apk"
	"apichecker/internal/dataset"
	"apichecker/internal/emulator"
	"apichecker/internal/hook"
	"apichecker/internal/ml"
	"apichecker/internal/monkey"
	"apichecker/internal/pipeline"
)

// trainedCheckerCfg is trainedChecker with a caller-shaped config.
func trainedCheckerCfg(t *testing.T, n int, cfg Config) (*Checker, *dataset.Corpus) {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.NumApps = n
	corpus, err := dataset.Generate(testU, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := TrainFromCorpus(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ck, corpus
}

// legacyVet reproduces the pre-pipeline monolithic vet path from the
// checker's trained parts: derive the content-seeded Monkey config,
// emulate (full adb sequence for raw archives, bare engine otherwise),
// extract, classify. It shares no code with the staged pipeline, so
// agreement is evidence the refactor preserved the computation, not just
// that both call the same function.
func legacyVet(t *testing.T, ck *Checker, sub Submission) *Verdict {
	t.Helper()
	dig := (&sub).ContentDigest()
	if dig == "" {
		t.Fatal("legacyVet: undigestable submission")
	}
	cfg := ck.Config()
	mkc := monkey.ProductionConfig(cfg.Seed ^ int64(pipeline.DigestSeed(dig)))
	mkc.Events = cfg.Events

	reg, err := hook.NewRegistry(ck.Universe(), ck.Selection().Keys)
	if err != nil {
		t.Fatal(err)
	}

	if sub.Raw != nil {
		sess := adb.NewSession(adb.NewDevice("emulator-5554", cfg.Profile, reg))
		vr, err := sess.Vet(sub.Raw, mkc)
		if err != nil {
			t.Fatal(err)
		}
		x, err := ck.Extractor().Vector(vr.Run.Log, vr.APK.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		return legacyVerdict(ck, vr.APK.PackageName(), vr.APK.VersionCode(), dig, vr.Run, x)
	}

	p := sub.Program
	res, err := emulator.New(cfg.Profile, reg).Run(p, mkc)
	if err != nil {
		t.Fatal(err)
	}
	man, err := p.Manifest(ck.Universe())
	if err != nil {
		t.Fatal(err)
	}
	x, err := ck.Extractor().Vector(res.Log, man)
	if err != nil {
		t.Fatal(err)
	}
	return legacyVerdict(ck, p.PackageName, p.Version, dig, res, x)
}

func legacyVerdict(ck *Checker, pkg string, version int, dig string, res *emulator.Result, x ml.Vector) *Verdict {
	score := ck.Model().Score(x)
	return &Verdict{
		Package:        pkg,
		VersionCode:    version,
		Digest:         dig,
		Generation:     ck.Generation().ID,
		Malicious:      score > 0,
		Score:          score,
		Tier:           2,
		ScanTime:       res.VirtualTime,
		OverallTime:    res.VirtualTime + pipeline.FixedOverhead,
		FellBack:       res.FellBack,
		Crashes:        res.Crashed,
		Engine:         res.Profile,
		InvokedKeyAPIs: res.Log.DistinctInvoked(),
	}
}

// TestPipelineMatchesLegacyVet is the refactor's equivalence proof: for
// every payload form (raw archive, bare program), with the
// verdict cache enabled and disabled, the staged pipeline's verdict is
// bit-identical to an independent replica of the monolithic path it
// replaced — and with the cache on, the cached re-answer is too.
func TestPipelineMatchesLegacyVet(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache int
	}{
		{"cache-on", 0},
		{"cache-off", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.VerdictCache = tc.cache
			ck, corpus := trainedCheckerCfg(t, 120, cfg)
			p := corpus.Program(5)
			raw, err := apk.Build(p, testU)
			if err != nil {
				t.Fatal(err)
			}

			for _, sub := range []struct {
				name string
				s    Submission
			}{
				{"raw", Submission{Raw: raw}},
				{"program", Submission{Program: corpus.Program(7)}},
			} {
				got, err := ck.Vet(context.Background(), sub.s)
				if err != nil {
					t.Fatalf("%s: %v", sub.name, err)
				}
				want := legacyVet(t, ck, sub.s)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: pipeline verdict diverged from legacy path:\n got  %+v\n want %+v",
						sub.name, got, want)
				}
				// Resubmission: with the cache on this is a hit; either way
				// the verdict must not change.
				again, out, err := ck.VetOutcome(context.Background(), sub.s)
				if err != nil {
					t.Fatalf("%s resubmit: %v", sub.name, err)
				}
				if !reflect.DeepEqual(again, want) {
					t.Errorf("%s: resubmitted verdict diverged from legacy path", sub.name)
				}
				if tc.cache == 0 && !out.Served() {
					t.Errorf("%s: resubmission outcome = %v, want cache-served", sub.name, out)
				}
				if tc.cache < 0 && out.Served() {
					t.Errorf("%s: disabled cache served outcome %v", sub.name, out)
				}
			}
		})
	}
}

// TestDeadlineAttributedToStage pins the stage attribution of vet
// failures: a submission whose context is already dead — a raw archive or
// a bare program alike — dies in the emulate stage (the first stage that
// honours the context), and an invalid submission dies at admission.
func TestDeadlineAttributedToStage(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	raw, err := apk.Build(corpus.Program(0), testU)
	if err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()

	for _, tc := range []struct {
		name string
		ctx  context.Context
		sub  Submission
		want error
	}{
		{"expired program", expired, Submission{Program: corpus.Program(0)}, ErrDeadlineExceeded},
		{"expired raw", expired, Submission{Raw: raw}, ErrDeadlineExceeded},
		{"canceled program", canceled, Submission{Program: corpus.Program(0)}, context.Canceled},
		{"canceled raw", canceled, Submission{Raw: raw}, context.Canceled},
	} {
		_, err := ck.Vet(tc.ctx, tc.sub)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: Vet = %v, want %v", tc.name, err, tc.want)
		}
		if stage, ok := pipeline.FailedStage(err); !ok || stage != pipeline.StageEmulate {
			t.Errorf("%s: vet attributed to %q/%v, want %q", tc.name, stage, ok, pipeline.StageEmulate)
		}
	}

	_, err = ck.Vet(context.Background(), Submission{})
	if !errors.Is(err, ErrBadSubmission) {
		t.Fatalf("Vet(empty) = %v, want ErrBadSubmission", err)
	}
	if stage, _ := pipeline.FailedStage(err); stage != pipeline.StageAdmit {
		t.Errorf("invalid submission attributed to %q, want %q", stage, pipeline.StageAdmit)
	}
}

// TestCancellationChurn: cancelled and live vets of raw archives and bare
// programs, interleaved on one checker, each get their own outcome — a
// cancelled vet fails with context.Canceled and leaves nothing behind that
// a live one could trip over, and every live vet matches the legacy path.
// Run under -race in CI.
func TestCancellationChurn(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	const n = 40
	subs := make([]Submission, n)
	for i := range subs {
		p := corpus.Program(i % corpus.Len())
		if i%4 < 2 {
			raw, err := apk.Build(p, testU)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = Submission{Raw: raw}
		} else {
			subs[i] = Submission{Program: p}
		}
	}
	got := make([]*Verdict, n)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 0 {
				ctx = canceled
			}
			v, err := ck.Vet(ctx, subs[i])
			if i%2 == 0 && !errors.Is(err, context.Canceled) {
				t.Errorf("vet %d: err = %v, want context.Canceled", i, err)
			}
			if i%2 == 1 && err != nil {
				t.Errorf("vet %d: %v", i, err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i += 2 {
		if want := legacyVet(t, ck, subs[i]); !reflect.DeepEqual(got[i], want) {
			t.Errorf("vet %d: verdict after churn diverged from legacy path:\n got  %+v\n want %+v", i, got[i], want)
		}
	}
	for _, sub := range []Submission{subs[0], subs[2]} { // a raw archive and a program, both cancelled above
		if _, err := ck.Vet(context.Background(), sub); err != nil {
			t.Fatalf("vet after churn: %v", err)
		}
	}
}

// TestStageStatsCoverChain: after a vet, the checker's obs spine has one
// span per executed stage, in chain order, with the emulate stage showing
// the dominant virtual latency.
func TestStageStatsCoverChain(t *testing.T) {
	ck, corpus := trainedChecker(t, 120)
	v, err := ck.Vet(context.Background(), Submission{Program: corpus.Program(2)})
	if err != nil {
		t.Fatal(err)
	}
	stats := ck.StageStats()
	byName := map[string]int{}
	for i, st := range stats {
		byName[st.Stage] = i
		if st.Count != 1 {
			t.Errorf("stage %s count = %d, want 1", st.Stage, st.Count)
		}
	}
	for _, want := range []string{
		pipeline.StageAdmit, pipeline.StageCacheLookup, pipeline.StageTriage,
		pipeline.StageDecode, pipeline.StageEmulate, pipeline.StageExtract,
		pipeline.StageInfer,
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("stage %s missing from StageStats", want)
		}
	}
	emu := stats[byName[pipeline.StageEmulate]]
	if got := time.Duration(emu.Dur.P50 * float64(time.Second)); got != v.ScanTime {
		t.Errorf("emulate span p50 = %v, want the verdict's ScanTime %v", got, v.ScanTime)
	}
}
