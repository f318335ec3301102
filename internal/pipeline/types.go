// Package pipeline is the canonical vet path — the sequence the paper
// describes (install/emulate, hook-log collection, A+P+I feature
// extraction, random-forest inference) as two straight-line drivers on
// Deps:
//
//	Vet:    admit → cache.lookup[ triage[ decode → emulate → extract → infer ] ]
//	Answer: admit → cache.lookup (hit half)
//
// Each stage is a function over a VetContext that carries the submission,
// its content digest, the bounding context, and the stage products; every
// stage emits one obs span with its virtual-clock duration, and failures
// (in particular deadline expiries) are attributed to the stage they died
// in.
//
// The drivers preserve the bit-identical-verdict guarantees of the
// monolithic path they replaced: verdicts depend on submission content
// alone (Monkey seeds derive from the content digest), the cache stages
// are semantically invisible, and stage boundaries add no randomness —
// proven by the legacy-equivalence and determinism tests in
// internal/core.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/obs"
)

// Typed failure modes of the vet path. internal/core aliases these (and
// the public facade re-exports them), so downstream callers branch with
// errors.Is instead of matching error strings.
var (
	// ErrBadSubmission marks a Submission refused at admission: it does not
	// carry exactly one payload (raw bytes or a behaviour program), or its
	// already-decoded program fails behavior's Validate (the error wraps
	// behavior.ErrInvalid too) or names an API, intent or permission id the
	// deployment's universe does not have.
	ErrBadSubmission = errors.New("bad submission")

	// ErrDeadlineExceeded marks a vet abandoned because its per-submission
	// deadline expired. It wraps context.DeadlineExceeded, so both
	// errors.Is(err, ErrDeadlineExceeded) and
	// errors.Is(err, context.DeadlineExceeded) hold on a timed-out vet.
	ErrDeadlineExceeded = fmt.Errorf("vet deadline exceeded: %w", context.DeadlineExceeded)
)

// Submission is one vetting request for the canonical Vet entrypoint. It
// carries exactly one payload:
//
//   - Raw: a serialized APK archive, decoded on the vet path and emulated
//     like a program (install → Monkey → hooked run, §4.2);
//   - Program: behaviour semantics directly (the market-simulation path,
//     where building megabytes of zip per app would only slow things down).
//
// Seq optionally pins the vet sequence number (reserved up front via
// ReserveVetSeqs); 0 assigns the next one. Sequence numbers identify
// submissions in service logs and metrics; verdicts do not depend on them
// — the per-submission Monkey seed derives from the content digest, so a
// given archive exercises identically however often, in whatever order,
// and on whatever lane it is submitted. That content-determinism is what
// makes parallel service vetting bit-identical to a serial loop, and
// cached verdicts bit-identical to emulated ones.
//
// Digest optionally pins the content digest (hex sha256 of the canonical
// payload bytes); leave it empty and ContentDigest derives it.
//
// Trace, when set, receives every span of this submission's vet, right
// after the checker's obs collector has it: a per-request reply route,
// not a setting. It is never journaled nor sent on the claim wire, so a
// replayed or remotely vetted submission has none.
type Submission struct {
	Raw     []byte
	Program *behavior.Program
	Seq     int64
	Digest  string
	Trace   obs.Sink
}

// Validate checks the exactly-one-payload invariant; violations wrap
// ErrBadSubmission.
func (s Submission) Validate() error {
	if (s.Raw != nil) == (s.Program != nil) {
		return fmt.Errorf("core: %w: must carry exactly one of raw bytes or program", ErrBadSubmission)
	}
	return nil
}

// ContentDigest returns the submission's content digest — the verdict-
// cache key and Monkey-seed source: hex sha256 of the raw archive bytes
// (Raw) or of the canonical encoding of the behaviour program (Program). The result is memoized in
// Digest. Empty when the payload cannot be digested; such submissions
// bypass the verdict cache.
func (s *Submission) ContentDigest() string {
	if s.Digest != "" {
		return s.Digest
	}
	switch {
	case s.Raw != nil:
		s.Digest = apk.Digest(s.Raw)
	case s.Program != nil:
		// Program.ContentDigest memoizes on the shared Program, so a
		// duplicate-heavy stream pays the encode once per unique app rather
		// than once per submission.
		if d, err := s.Program.ContentDigest(); err == nil {
			s.Digest = d
		}
	}
	return s.Digest
}

// PackageName names the submission for logs and error messages, best
// effort (a raw archive is unnamed until parsed).
func (s Submission) PackageName() string {
	if s.Program != nil {
		return s.Program.PackageName
	}
	return "(raw archive)"
}

// Verdict is the outcome of vetting one submission.
type Verdict struct {
	Package     string
	VersionCode int

	// Digest is the submission's content digest (hex SHA-256 of a raw
	// archive's bytes, of the canonical encoding for a behaviour program): the app's identity, and the key the verdict is cached and
	// journaled under. Empty only for a payload that cannot be digested.
	Digest string

	// Generation identifies the model generation that produced this
	// verdict (1 for a freshly assembled checker, incremented by every
	// hot-swap). The whole vet — hook registry, emulation, feature
	// extraction, and forest inference — ran on exactly this generation;
	// the pipeline pins it once per submission and never mixes parts
	// across a concurrent swap.
	Generation uint64

	Malicious bool
	// Score is the model margin (> 0 ⇒ malicious); magnitude is
	// confidence.
	Score float64

	// Tier records which tier of the triage pipeline answered: 1 for the
	// static manifest-only pre-screen (confident score outside the
	// uncertainty band, no emulation paid), 2 for the full
	// emulate→extract→infer path. Always 2 on a checker without a triage
	// model or with the trivial [0,1] band.
	Tier int

	// ScanTime is the virtual dynamic-analysis time; OverallTime adds
	// the fixed install/queue overhead (§5.2 reports 1.92 min overall,
	// 1.4 min analysis).
	ScanTime    time.Duration
	OverallTime time.Duration

	// FellBack reports the app was incompatible with the lightweight
	// engine and re-ran on the stock engine.
	FellBack bool

	// Crashes counts transient emulator crashes detected (and restarted
	// through) during this vet; Engine names the profile that produced
	// the final log. Together with FellBack these surface the §5.1
	// reliability accounting per submission.
	Crashes int
	Engine  string

	// InvokedKeyAPIs counts distinct key APIs observed; "barely uses
	// key APIs" (§5.2's false-negative analysis) shows up here.
	InvokedKeyAPIs int
}

// FixedOverhead is the non-analysis cost per submission: download,
// install, emulator recycle, result logging (§5.2: 1.92 min overall vs
// 1.4 min analysis at production load).
const FixedOverhead = 31 * time.Second

// DigestSeed folds a hex content digest into 64 bits (FNV-1a) — the
// content-derived Monkey seed source.
func DigestSeed(dig string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(dig); i++ {
		h = (h ^ uint64(dig[i])) * 1099511628211
	}
	return h
}
