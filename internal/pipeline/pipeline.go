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

// VetContext carries one submission through the stage chain: the bounding
// context, the submission and its identity, the per-stage products, and
// the span record the engine appends to as stages complete.
type VetContext struct {
	// Ctx bounds the vet: a deadline or cancellation aborts the run at
	// the next stage or event-batch boundary.
	Ctx context.Context

	// Sub is the submission being vetted. ContentDigest memoizes on it.
	Sub *Submission

	// Seq is the vet sequence number (assigned by the Decode stage if the
	// submission did not pin one); Digest is the content digest resolved
	// at admission.
	Seq    int64
	Digest string

	// Gen is the model generation this vet is pinned to. The Decode stage
	// sets it exactly once — inside the cache-lookup singleflight bracket —
	// and every later stage reads only through it, so a concurrent hot-swap
	// can never mix feature extraction and scoring across generations.
	Gen *ModelGen

	// Monkey is the per-submission exerciser configuration, derived from
	// the content digest by the Decode stage.
	Monkey monkey.Config

	// Stage products, populated left to right. Archive is a raw
	// submission's opened handle: Triage and Decode share one directory
	// walk and one decoded manifest through it. Parsed, for a raw
	// submission, is the view Decode assembles from it — Dex stays nil,
	// nothing on the vet path reads code.
	Archive  *apk.Archive
	Program  *behavior.Program
	Parsed   *apk.APK
	Manifest *manifest.Manifest
	Run      *emulator.Result
	Vector   ml.Vector
	Verdict  *Verdict

	// Outcome reports how the verdict was served (miss/hit/coalesced/
	// bypass); the zero value is OutcomeBypass.
	Outcome vcache.Outcome

	// Entry is the verdict-cache entry an admission probe found before the
	// submission was sequenced; HitChain's CacheHit stage decodes it.
	Entry []byte

	// Spans is the per-submission span log: one obs event per completed
	// stage, in execution order.
	Spans []obs.Event

	// span scratch: the executing stage deposits its virtual duration and
	// outcome note here; the engine consumes them when recording the span.
	spanDur  time.Duration
	spanNote string
}

// Span lets the executing stage report its virtual-clock duration and an
// optional outcome note for the span the engine is about to record.
func (vc *VetContext) Span(dur time.Duration, note string) {
	vc.spanDur, vc.spanNote = dur, note
}

// archive opens the raw submission's archive handle, once: the triage
// pre-screen takes the manifest from it and a fall-through Decode the
// behaviour blob, over one directory walk.
func (vc *VetContext) archive() (*apk.Archive, error) {
	if vc.Archive == nil {
		a, err := apk.Open(vc.Sub.Raw)
		if err != nil {
			return nil, err
		}
		vc.Archive = a
	}
	return vc.Archive, nil
}

// PackageLabel names the submission for spans and error messages, best
// effort: the parsed/decoded identity once Decode has run, the
// submission's own naming before that.
func (vc *VetContext) PackageLabel() string {
	if vc.Program != nil {
		return vc.Program.PackageName
	}
	if vc.Parsed != nil {
		return vc.Parsed.PackageName()
	}
	return vc.Sub.PackageName()
}

// Stage is one named step of the vet pipeline. Concrete stages implement
// exactly one of Runner (a plain step) or Wrapper (a step that brackets
// the remainder of the chain, e.g. the cache-lookup singleflight).
type Stage interface {
	Name() string
}

// Runner is a plain stage: run, then continue down the chain.
type Runner interface {
	Stage
	Run(*VetContext) error
}

// Wrapper is a bracketing stage: it receives the rest of the chain as
// next and decides whether to run it (cache miss) or answer without it
// (cache hit).
type Wrapper interface {
	Stage
	Wrap(vc *VetContext, next func() error) error
}

// stageErr attributes a failure to the pipeline stage it died in. The
// innermost stage wins: a deadline that expires during emulation is
// reported as stage "emulate" even though the cache-lookup wrapper was
// bracketing it.
type stageErr struct {
	stage string
	err   error
}

func (e *stageErr) Error() string { return "stage " + e.stage + ": " + e.err.Error() }
func (e *stageErr) Unwrap() error { return e.err }

// FailedStage reports which pipeline stage an error died in, if the
// error came out of a pipeline run.
func FailedStage(err error) (string, bool) {
	var se *stageErr
	if errors.As(err, &se) {
		return se.stage, true
	}
	return "", false
}

// attribute wraps a stage failure with its stage name and normalizes
// deadline expiry (wherever the emulator noticed it) to
// ErrDeadlineExceeded. Errors already attributed deeper in the chain
// pass through untouched.
func attribute(stage string, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := FailedStage(err); ok {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadlineExceeded) {
		err = fmt.Errorf("%w (%v)", ErrDeadlineExceeded, err)
	}
	return &stageErr{stage: stage, err: err}
}

// Pipeline is an assembled stage chain over one obs collector. Safe for
// concurrent use: stages hold no per-submission state (everything rides
// on the VetContext).
type Pipeline struct {
	stages []Stage
	col    *obs.Collector
}

// New assembles a pipeline. Every stage must implement Runner or Wrapper.
func New(col *obs.Collector, stages ...Stage) *Pipeline {
	for _, st := range stages {
		switch st.(type) {
		case Runner, Wrapper:
		default:
			panic(fmt.Sprintf("pipeline: stage %s implements neither Runner nor Wrapper", st.Name()))
		}
	}
	return &Pipeline{stages: stages, col: col}
}

// Run drives one submission through the chain. The returned error is
// attributed to the stage it died in (see FailedStage) and, for deadline
// expiries, wraps ErrDeadlineExceeded.
func (p *Pipeline) Run(vc *VetContext) error {
	if vc.Ctx == nil {
		vc.Ctx = context.Background()
	}
	return p.run(vc, 0)
}

// run executes stages[i:]; wrappers receive the tail as their next.
func (p *Pipeline) run(vc *VetContext, i int) error {
	if i >= len(p.stages) {
		return nil
	}
	st := p.stages[i]
	if w, ok := st.(Wrapper); ok {
		return p.record(vc, st, func(vc *VetContext) error {
			return w.Wrap(vc, func() error { return p.run(vc, i+1) })
		})
	}
	if err := p.record(vc, st, st.(Runner).Run); err != nil {
		return err
	}
	return p.run(vc, i+1)
}

// record runs one stage body, attributes its failure, and records the
// span (to the collector and the context's span log).
func (p *Pipeline) record(vc *VetContext, st Stage, body func(*VetContext) error) error {
	vc.spanDur, vc.spanNote = 0, ""
	err := attribute(st.Name(), body(vc))
	ev := obs.Event{
		Kind:    obs.KindSpan,
		Name:    st.Name(),
		Trace:   vc.Seq,
		Package: vc.PackageLabel(),
		Dur:     vc.spanDur,
		Note:    vc.spanNote,
		Err:     err,
	}
	// A wrapper's span must not count the inner stages' failure twice:
	// only the stage the error is attributed to books it.
	if err != nil {
		if stage, ok := FailedStage(err); ok && stage != st.Name() {
			ev.Err = nil
		}
	}
	if p.col != nil {
		p.col.Emit(ev)
	}
	vc.Spans = append(vc.Spans, ev)
	return err
}
