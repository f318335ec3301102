package core

import "apichecker/internal/pipeline"

// Typed failure modes of the vetting path. The sentinels are defined by
// internal/pipeline (the stages raise them) and aliased here; the public
// facade re-exports all of them, so downstream callers branch with
// errors.Is instead of matching error strings.
var (
	// ErrBadSubmission marks a Submission refused at admission: not exactly
	// one payload (raw bytes or a behaviour program), or a decoded program
	// that is invalid or names ids outside the deployment's universe.
	ErrBadSubmission = pipeline.ErrBadSubmission

	// ErrDeadlineExceeded marks a vet abandoned because its per-submission
	// deadline expired. It wraps context.DeadlineExceeded, so both
	// errors.Is(err, ErrDeadlineExceeded) and
	// errors.Is(err, context.DeadlineExceeded) hold on a timed-out vet.
	ErrDeadlineExceeded = pipeline.ErrDeadlineExceeded
)
