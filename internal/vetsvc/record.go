package vetsvc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/vcache"
)

// record is the verdict record one accepted submission settles into —
// the service's unit of exactly-once delivery, keyed by seq (+ content
// digest when known). Tickets are views over it; the worker's report and
// a dead-letter both try to settle it, and the first one wins: a lease
// reclaimed mid-vet can produce two reports for one seq (the stalled
// original and the re-issued claim), and first-wins is what turns the
// queue's at-least-once execution into the service's exactly-once
// verdict accounting.
type record struct {
	// ticket is the record's one view, allocated with it.
	ticket Ticket

	seq     int64
	pkg     string
	digest  string
	claimed atomic.Bool

	mu      sync.Mutex
	settled bool
	verdict *core.Verdict
	outcome vcache.Outcome // how the verdict was served
	err     error
	done    chan struct{} // lazy (doneCh): fast-path settles never allocate it

	// The in-process half of the queued submission rides the record
	// (as the queue item's Mem attachment) rather than a separate
	// allocation: the parts a replayed item must rebuild from the
	// durable payload instead. sub is read under mu (takeSub) because
	// settle clears it — a reclaim-raced late claim may observe the
	// cleared form and vet nothing, which first-wins absorbs.
	sub      core.Submission
	ctx      context.Context // caller-cancelable admission context; nil rides s.base
	deadline time.Time       // absolute per-submission deadline; zero = none
}

func newRecord(seq int64, pkg, digest string) *record {
	r := &record{seq: seq, pkg: pkg, digest: digest}
	r.ticket.r = r
	return r
}

// settle resolves the record exactly once; later calls report false and
// change nothing (duplicate suppression). book counts the completion; it
// runs under the record lock, before any waiter is released, so whoever has
// seen the verdict finds it in the service's metrics. The submission
// payload is released here so long-lived tickets don't pin archive bytes.
func (r *record) settle(v *core.Verdict, out vcache.Outcome, err error, book func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.settled {
		return false
	}
	r.settled = true
	r.verdict, r.outcome, r.err = v, out, err
	r.sub = core.Submission{}
	book()
	if r.done != nil {
		close(r.done)
	}
	return true
}

// doneCh returns the settlement channel, creating it on first demand —
// a record that settles before anyone waits (tier-1 verdicts, cache
// hits) never pays for one.
func (r *record) doneCh() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done == nil {
		r.done = make(chan struct{})
		if r.settled {
			close(r.done)
		}
	}
	return r.done
}

// isSettled reports whether the record has its verdict; once true the
// verdict/err fields are immutable and safe to read.
func (r *record) isSettled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.settled
}

// takeSub snapshots the submission for a claim (zero after settle).
func (r *record) takeSub() core.Submission {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sub
}

// markClaimed notes that a worker has taken the submission at least once.
func (r *record) markClaimed() { r.claimed.Store(true) }

// state reports the submission's lifecycle position:
// queued → claimed → done/failed.
func (r *record) state() string {
	r.mu.Lock()
	settled, err := r.settled, r.err
	r.mu.Unlock()
	if settled {
		if err != nil {
			return "failed"
		}
		return "done"
	}
	if r.claimed.Load() {
		return "claimed"
	}
	return "queued"
}

// addRecord registers a record for an accepted submission.
func (s *Service) addRecord(r *record) {
	s.recMu.Lock()
	s.recs[r.seq] = r
	s.recMu.Unlock()
}

// recordFor resolves the live record for a seq (nil once settled).
func (s *Service) recordFor(seq int64) *record {
	s.recMu.Lock()
	r := s.recs[seq]
	s.recMu.Unlock()
	return r
}

// dropRecord forgets a settled record; outstanding tickets keep their
// view of it.
func (s *Service) dropRecord(seq int64) {
	s.recMu.Lock()
	delete(s.recs, seq)
	s.recMu.Unlock()
}
