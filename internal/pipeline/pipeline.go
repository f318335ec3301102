package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/emulator"
	"apichecker/internal/manifest"
	"apichecker/internal/ml"
	"apichecker/internal/monkey"
	"apichecker/internal/obs"
	"apichecker/internal/vcache"
)

// VetContext carries one submission through the vet path: the bounding
// context, the submission and its identity, the per-stage products, and
// the span scratch the executing stage reports through.
type VetContext struct {
	// Ctx bounds the vet: a deadline or cancellation aborts the run at
	// the next stage or event-batch boundary.
	Ctx context.Context

	// Sub is the submission being vetted: AcquireContext's copy in sub,
	// so the caller's Submission never escapes. ContentDigest memoizes on
	// it.
	Sub *Submission
	sub Submission

	// Seq is the vet sequence number (assigned by the decode stage if the
	// submission did not pin one); Digest is the content digest resolved
	// at admission.
	Seq    int64
	Digest string

	// Gen is the model generation this vet is pinned to. The triage stage
	// sets it exactly once — inside the cache-lookup singleflight bracket —
	// and every later stage reads only through it, so a concurrent hot-swap
	// can never mix feature extraction and scoring across generations.
	Gen *ModelGen

	// Monkey is the per-submission exerciser configuration, derived from
	// the content digest by the decode stage.
	Monkey monkey.Config

	// Stage products, populated left to right. Archive is a raw
	// submission's opened handle: triage and decode share one directory
	// walk and one decoded manifest through it. Program and Manifest are
	// the decoded view every payload kind reaches; nothing on the vet path
	// reads a dex.
	Archive  *apk.Archive
	Program  *behavior.Program
	Manifest *manifest.Manifest
	Run      *emulator.Result
	Vector   ml.Vector
	Verdict  *Verdict

	// Outcome reports how the verdict was served (miss/hit/coalesced/
	// bypass); the zero value is OutcomeBypass.
	Outcome vcache.Outcome

	// span scratch: the executing stage deposits its virtual duration and
	// outcome note here; emit consumes them when it emits the span.
	spanDur  time.Duration
	spanNote string

	// scratch is what a miss decodes and emulates into; like Vector it
	// survives ReleaseContext.
	scratch *scratch
}

// scratch is a pooled context's miss storage: the archive handle, with
// its inflate arena and the manifest and program decoders, and the
// emulation run's result, hook log and streams. Archive, Program,
// Manifest and Run point into it while a raw archive is vetted; nothing
// that outlives the vet does.
type scratch struct {
	archive apk.Archive
	emu     emulator.Scratch
}

// Span lets the executing stage report its virtual-clock duration and an
// optional outcome note for the span emit is about to emit.
func (vc *VetContext) Span(dur time.Duration, note string) {
	vc.spanDur, vc.spanNote = dur, note
}

// archive opens the raw submission's archive handle, once: the triage
// pre-screen takes the manifest from it and a fall-through decode the
// behaviour blob, over one directory walk.
func (vc *VetContext) archive() (*apk.Archive, error) {
	if vc.Archive == nil {
		a := &vc.scratch.archive
		if err := a.Reset(vc.Sub.Raw); err != nil {
			return nil, err
		}
		vc.Archive = a
	}
	return vc.Archive, nil
}

// PackageLabel names the submission for spans and error messages, best
// effort: the decoded identity once decode has run, the submission's own
// naming before that.
func (vc *VetContext) PackageLabel() string {
	if vc.Program != nil {
		return vc.Program.PackageName
	}
	return vc.Sub.PackageName()
}

// stageErr attributes a failure to the stage it died in. The innermost
// stage wins: a deadline that expires during emulation is reported as
// stage "emulate" even though the cache lookup was bracketing it.
type stageErr struct {
	stage string
	err   error
}

func (e *stageErr) Error() string { return "stage " + e.stage + ": " + e.err.Error() }
func (e *stageErr) Unwrap() error { return e.err }

// FailedStage reports which stage an error died in, if the error came out
// of a vet driver.
func FailedStage(err error) (string, bool) {
	var se *stageErr
	if errors.As(err, &se) {
		return se.stage, true
	}
	return "", false
}

// Vet drives the serving path: admit, then the verdict-cache lookup, which
// brackets the triage pre-screen, which brackets decode → emulate →
// extract → infer. The returned error is attributed to the stage it died
// in (see FailedStage) and, for deadline expiries, wraps
// ErrDeadlineExceeded.
func (d *Deps) Vet(vc *VetContext) error {
	if err := d.emit(vc, StageAdmit, d.admit(vc)); err != nil {
		return err
	}
	return d.emit(vc, StageCacheLookup, d.lookup(vc))
}

// Answer answers a submission from the verdict-cache entry an admission
// probe found before the submission was sequenced: admit, then the hit
// half of the cache lookup under the lookup's name, so it emits the two
// spans a lookup hit inside Vet emits. Nothing is decoded or emulated.
func (d *Deps) Answer(vc *VetContext, entry []byte) error {
	if err := d.emit(vc, StageAdmit, d.admit(vc)); err != nil {
		return err
	}
	vc.Outcome = vcache.OutcomeHit
	vc.Span(0, vc.Outcome.String())
	return d.emit(vc, StageCacheLookup, vc.answer(entry))
}

// analyse runs the tier-2 stages, stopping at the first failure.
func (d *Deps) analyse(vc *VetContext) error {
	if err := d.emit(vc, StageDecode, d.decode(vc)); err != nil {
		return err
	}
	if err := d.emit(vc, StageEmulate, d.emulate(vc)); err != nil {
		return err
	}
	if err := d.emit(vc, StageExtract, extract(vc)); err != nil {
		return err
	}
	return d.emit(vc, StageInfer, infer(vc))
}

// emit closes one stage: it attributes the stage's failure, emits its span
// from the context's scratch to the obs collector and then to the
// submission's Trace, and clears the scratch for the next stage. A
// bracketing stage's span is emitted after the spans of the stages inside
// it; an error one of those already owns passes through untouched, and
// the bracketing span does not book it a second time. Deadline expiry,
// wherever the emulator noticed it, is normalised to ErrDeadlineExceeded.
func (d *Deps) emit(vc *VetContext, stage string, err error) error {
	ev := obs.Event{
		Kind:    obs.KindSpan,
		Name:    stage,
		Trace:   vc.Seq,
		Package: vc.PackageLabel(),
		Dur:     vc.spanDur,
		Note:    vc.spanNote,
	}
	vc.spanDur, vc.spanNote = 0, ""
	// FailedStage only on failure: errors.As's target escapes, so calling
	// it on every span would allocate on every stage.
	if err != nil {
		if _, owned := FailedStage(err); !owned {
			if errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadlineExceeded) {
				err = fmt.Errorf("%w (%v)", ErrDeadlineExceeded, err)
			}
			err = &stageErr{stage: stage, err: err}
			ev.Err = err
		}
	}
	d.Obs.Emit(ev)
	if t := vc.Sub.Trace; t != nil {
		t.Emit(ev)
	}
	return err
}
