// Package vetsvc is the always-on submission-vetting service: the serving
// layer that turns the blocking, one-shot Checker.Vet call into what the
// paper actually deploys at T-Market (§5.1-§5.2) — a farm of emulator
// lanes fed by a bounded submission queue, with per-submission deadlines,
// crash/fallback accounting, and runtime metrics.
//
// The service is a thin composition of three layers, the same ones a
// cluster coordinator and its worker nodes run:
//
//   - internal/workqueue owns admission: a bounded, seq-ordered queue
//     with explicit backpressure, lease-bounded claims, and (with
//     Config.QueueDir) a CRC-framed journal that replays every accepted-
//     but-unacked submission after a kill.
//   - internal/worker owns execution: its one executor — the same one a
//     cluster worker node runs over its claim streams — loops claim → vet
//     → ack on the lanes, with a heartbeat timer during long emulations,
//     lease-loss cancellation, and per-claim panic isolation (a poisoned
//     APK nacks its lease, it does not kill the process).
//   - vetsvc itself owns meaning: its claimer binds each queue lease to a
//     first-wins verdict record keyed by seq (+digest) and the vet
//     context's parent and deadline, and settles it by one rule — for the
//     local lanes and, through Remote, for a cluster coordinator's nodes;
//     tickets are views over the records,
//     Submit answers a cached verdict at admission and enqueues everything
//     else, Drain is stop-claims-then-settle-leases, and every metric is a
//     view over the queue, the records, and the obs spine.
//
// The determinism contract: verdicts derive from submission
// content alone (Monkey seeds come from the content digest), so service
// vetting is bit-identical to a serial Vet loop over the same queue,
// whatever the worker scheduling, the lease reclaims, or the restarts.
// Vet sequence numbers are reserved at admission in FIFO order to
// identify submissions in logs and metrics — a reclaim or a replay never
// burns one.
package vetsvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/emulator"
	"apichecker/internal/obs"
	"apichecker/internal/vcache"
	"apichecker/internal/worker"
	"apichecker/internal/workqueue"
)

// Typed admission failures; the public facade re-exports them.
var (
	// ErrQueueFull: the bounded submission queue is at capacity. Callers
	// shed load or retry later; nothing was enqueued and no vet sequence
	// number was consumed.
	ErrQueueFull = errors.New("vetsvc: submission queue full")

	// ErrClosed: the service is shut down and accepts no new submissions.
	ErrClosed = errors.New("vetsvc: service closed")

	// ErrDraining: the service is shutting down gracefully — admissions
	// stopped, in-flight submissions finishing. New submissions are
	// rejected with this (the gateway maps it to 503), and an in-flight
	// vet aborted by a hard drain deadline fails with an error wrapping
	// ErrDraining rather than a bare context cancellation, so callers can
	// tell "the service shut down under me" from their own cancel.
	ErrDraining = errors.New("vetsvc: service draining")

	// ErrPoisoned: the submission exhausted its claim attempts (repeated
	// panics or expired leases) and was dead-lettered; its ticket fails
	// with an error wrapping this instead of cycling through the queue
	// forever.
	ErrPoisoned = errors.New("vetsvc: submission dead-lettered")

	// ErrRawOnly: the service runs in coordinator mode (DisableLocalLanes)
	// and the submission carries no raw archive bytes — a behaviour
	// program cannot ship to a remote worker node, so admission rejects
	// it up front instead of queueing it forever.
	ErrRawOnly = errors.New("vetsvc: coordinator mode accepts only raw-archive submissions")

	// ErrStaleAck: a remote node's report names a seq whose submission is
	// not the one the node vetted (its key is another digest), as when it
	// was sent before a restart that gave the seq to new bytes. Remote.Ack
	// refuses it and changes nothing.
	ErrStaleAck = errors.New("vetsvc: the ack's key is not the digest of the submission its seq names")
)

// coordinatorLeaseTTL is the lease TTL of a service in coordinator mode
// whose Config sets none.
const coordinatorLeaseTTL = time.Minute

// queueNow is the queue's clock; nil is time.Now. Tests move it forward to
// pass a lease deadline without waiting for it.
var queueNow func() time.Time

// Config tunes one service instance.
type Config struct {
	// Workers is the emulator-lane count (paper: 16 per server); <= 0
	// selects emulator.ProductionLanes.
	Workers int

	// QueueSize bounds the submissions waiting for a lane (in-flight
	// submissions ride on top); <= 0 selects 4×Workers.
	QueueSize int

	// Deadline, when positive, bounds each submission's wall-clock
	// residence (queue wait + emulation) from admission; an expired
	// deadline aborts the emulation at its next crash-restart or
	// event-batch boundary and counts as a timeout.
	Deadline time.Duration

	// QueueDir, when non-empty, journals queued raw-archive submissions to
	// a CRC-framed log in that directory: a killed service replays every
	// enqueued-but-unacked submission on the next Open (crash-safe
	// intake). A submission answered from the verdict cache at admission
	// is never queued, so never journaled: its verdict is known before
	// Submit returns. Submissions admitted as behaviour programs are
	// memory-only and do not survive a restart. Use Open (not New) with a
	// QueueDir, so journal I/O errors surface.
	QueueDir string

	// LeaseTTL, when positive, bounds how long a claimed submission may go
	// without progress (ack or heartbeat) before the queue reclaims it and
	// re-issues it to another lane. With local lanes, 0 disables lease
	// expiry: a lane owns its claim until it settles. In coordinator mode
	// (DisableLocalLanes) a value <= 0 selects one minute, because
	// a node that dies holding a claim is only ever reclaimed by its TTL.
	LeaseTTL time.Duration

	// HeartbeatEvery tunes the mid-vet lease heartbeat: 0 selects
	// LeaseTTL/3 (heartbeats on whenever leases expire), a positive value
	// sets the period explicitly, and a negative value disables heartbeats
	// (lease-expiry drills: a stalled lane then loses its lease on the
	// TTL).
	HeartbeatEvery time.Duration

	// MaxAttempts bounds claims per submission before it is dead-lettered
	// with ErrPoisoned; <= 0 selects 3.
	MaxAttempts int

	// DisableLocalLanes runs the service in coordinator mode: no local
	// worker lanes start, and every queued submission is vetted by remote
	// worker nodes claiming it over the wire (internal/cluster), through the
	// service's Remote claimer: the local lanes' claim path and settle rule.
	// Raw-archive submissions only — anything else fails with ErrRawOnly.
	DisableLocalLanes bool
}

// The service's lifecycle events are obs.KindService events on its
// collector (Obs), named by these constants. Sinks run synchronously:
// accepted and rejected on the submitting goroutine (accepted with the
// admission lock held); started and done on the lane that vets the
// submission, or on the submitting goroutine, before Submit returns, for a
// submission answered from the verdict cache at admission. A sink attached
// after Open misses the accepted events of replayed submissions.
const (
	// EventAccepted: a submission was admitted under a seq — queued, or
	// about to be answered from the verdict cache.
	EventAccepted = "accepted"
	// EventRejected: the queue was full; nothing was enqueued (Trace 0).
	EventRejected = "rejected"
	// EventStarted: a worker began vetting the submission, or admission
	// found its verdict cached. A reclaimed submission starts again under
	// its original seq, so a lease-expiry reclaim can repeat this event for
	// one seq.
	EventStarted = "started"
	// EventDone: vetting finished (Err reports how; Dur is the verdict's
	// scan time). Exactly one per accepted submission, however many claims
	// it took.
	EventDone = "done"
)

// Ticket tracks one accepted submission to completion. It is a view over
// the submission's verdict record, and lives inside it.
type Ticket struct {
	r *record
}

// Seq returns the vet sequence number reserved for this submission.
func (t *Ticket) Seq() int64 { return t.r.seq }

// Done is closed when the submission has been vetted (or failed). It is
// made on first call; Wait does not need it.
func (t *Ticket) Done() <-chan struct{} { return t.r.doneCh() }

// State reports the submission's position in the serving state machine:
// "queued" (admitted, waiting for a lane) → "claimed" (a worker holds its
// lease) → "done" / "failed".
func (t *Ticket) State() string { return t.r.state() }

// Outcome reports how the settled verdict was served: miss, hit,
// coalesced, or bypass — the outcome a local lane's vet, a node's report
// or an admission hit settled the record with. OutcomeBypass until the
// ticket settles.
func (t *Ticket) Outcome() vcache.Outcome {
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	return t.r.outcome
}

// Wait blocks for the verdict. The context bounds the wait only — the
// submission itself keeps running under its own deadline.
func (t *Ticket) Wait(ctx context.Context) (*core.Verdict, error) {
	if !t.r.wait(ctx) {
		return nil, ctx.Err()
	}
	return t.r.verdict, t.r.err
}

// Service is a running vetting service over one trained Checker.
type Service struct {
	cfg Config
	ck  *core.Checker

	q    *workqueue.Queue
	pool *worker.Pool

	// mu serializes admissions: the sequence reservation and the enqueue
	// happen atomically, so FIFO queue order equals seq order — the
	// determinism contract. draining flips first (admissions now fail with
	// ErrDraining, the queue stops accepting); closed flips when the drain
	// has settled every accepted submission (admissions fail with
	// ErrClosed).
	mu       sync.Mutex
	draining bool
	closed   bool

	// answering counts admission hits accepted but not yet settled. Add
	// happens under mu while admissions are open, so once draining flips
	// nothing adds to it and Drain's Wait sees every answer through to its
	// done event.
	answering sync.WaitGroup

	// recs is the live verdict-record registry, keyed by seq; settled
	// records drop out (their tickets keep the view).
	recMu sync.Mutex
	recs  map[int64]*record

	// base is the drainable parent for submissions whose caller context
	// carries no cancellation of its own (Done() == nil — the common
	// serving shape, context.Background from a gateway or batch driver).
	// A hard drain cancels it with cause ErrDraining, aborting every
	// in-flight vet riding it at the next emulation boundary. Submissions
	// admitted under a caller-cancelable context keep that context as
	// parent — aborting those remains the caller's prerogative.
	base       context.Context
	baseCancel context.CancelCauseFunc

	// wallEWMA smooths the wall-clock cost of recent completions
	// (nanoseconds, α=1/8) — the live signal DrainEstimate turns into a
	// Retry-After hint.
	wallEWMA atomic.Int64

	m counters
}

// New starts a service over a trained checker. Out-of-range config values
// are clamped to their defaults; the service runs until Close. New panics
// if cfg.QueueDir is set and its journal cannot be opened — durable
// deployments should use Open and handle the error.
func New(ck *core.Checker, cfg Config) *Service {
	s, err := Open(ck, cfg)
	if err != nil {
		panic(fmt.Sprintf("vetsvc: New: %v (use Open for a durable queue dir)", err))
	}
	return s
}

// Open starts a service over a trained checker. With cfg.QueueDir set it
// opens (or creates) the intake journal there and re-admits every
// submission a previous life accepted but never settled — those replayed
// submissions are vetted by the worker lanes exactly like fresh ones
// (their verdicts are bit-identical, since verdicts derive from content
// alone), visible through Metrics().Replayed.
func Open(ck *core.Checker, cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = emulator.ProductionLanes
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4 * cfg.Workers
	}
	if cfg.DisableLocalLanes && cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = coordinatorLeaseTTL
	}
	s := &Service{
		cfg:  cfg,
		ck:   ck,
		recs: make(map[int64]*record),
		m:    newCounters(obs.NewCollector()),
	}
	s.base, s.baseCancel = context.WithCancelCause(context.Background())

	q, replayed, err := workqueue.Open(workqueue.Config{
		Capacity:    cfg.QueueSize,
		LeaseTTL:    cfg.LeaseTTL,
		MaxAttempts: cfg.MaxAttempts,
		Now:         queueNow,
		Dir:         cfg.QueueDir,
		Obs:         s.m.col,
		OnDead:      s.deadLetter,
	})
	if err != nil {
		return nil, err
	}
	s.q = q
	// Advance the checker's seq counter to the highest number the journal
	// ever recorded, so fresh admissions never collide with a seq a previous
	// life consumed and the first of them is the next one.
	if n := q.ReplayMaxSeq() - ck.VetCount(); n > 0 {
		ck.ReserveVetSeqs(int(n))
	}
	// Replayed submissions get records (and accepted events) before any
	// lane can claim them.
	for _, it := range replayed {
		r := newRecord(it.Seq, core.Submission{Raw: it.Payload}.PackageName(), it.Key)
		s.addRecord(r)
		s.m.accepted.Inc()
		s.emit(EventAccepted, r.seq, r.pkg, 0, nil)
	}
	if !cfg.DisableLocalLanes {
		s.pool = worker.Executor[*job]{
			HeartbeatEvery: cfg.HeartbeatEvery,
			Do:             s.vetClaim,
			OnPanic:        func(*job, any) { s.m.panics.Inc() },
		}.Start(context.Background(), cfg.Workers, func() worker.Claimer[*job] { return &localQueue{s: s} })
	}
	return s, nil
}

// Checker returns the checker the service vets with.
func (s *Service) Checker() *core.Checker { return s.ck }

// Obs returns the service's observability collector: admission/completion
// counters (svc.*), queue gauges and counters (svc.queue.*), scan-latency
// distributions, and the service-event stream. Each service owns its
// collector — a rebuilt service starts from zero, exactly as its Metrics
// always have. Attach a Sink to stream lifecycle events.
func (s *Service) Obs() *obs.Collector { return s.m.col }

// Config returns the effective (clamped) configuration.
func (s *Service) Config() Config { return s.cfg }

// Submit offers a submission without blocking. A submission whose content
// digest the verdict cache holds under the serving model is answered
// before Submit returns, on the calling goroutine: it takes no queue slot,
// and its started and done events fire there. Any other submission is
// queued, or, if the queue is at capacity, refused with ErrQueueFull,
// consuming nothing. The context becomes the parent of the submission's
// own deadline-bearing context.
func (s *Service) Submit(ctx context.Context, sub core.Submission) (*Ticket, error) {
	t, _, err := s.SubmitPublish(ctx, sub, nil)
	return t, err
}

// SubmitPublish is Submit, handing the ticket to publish once the
// submission is accepted and before anything can settle it. publish runs
// under the admission lock, right after the accepted event, so whatever it
// indexes the ticket in is complete before the submission's started or
// done event fires. Keep it short, and do not submit or drain from it.
//
// rawFree reports that the submission was answered at admission, so the
// service kept nothing of sub once SubmitPublish returns: the caller may
// reuse the bytes of sub.Raw. It is false for a queued submission, whose
// bytes the queue holds until the submission settles, and on an error.
func (s *Service) SubmitPublish(ctx context.Context, sub core.Submission, publish func(*Ticket)) (t *Ticket, rawFree bool, err error) {
	return s.admit(ctx, sub, false, publish)
}

// SubmitWait is Submit with backpressure instead of rejection: a queued
// submission blocks until queue space frees up, the context ends, or the
// service closes.
func (s *Service) SubmitWait(ctx context.Context, sub core.Submission) (*Ticket, error) {
	t, _, err := s.admit(ctx, sub, true, nil)
	return t, err
}

// admit is the one admission path. Validation comes first, then the
// verdict-cache probe: a hit is answered here and takes no queue slot. A
// miss takes one — waiting for it when wait is set — which transfers to the
// queue entry or is released on failure. The accepted event and publish run
// under the admission lock, before the item becomes claimable, so per-seq
// event order is strictly accepted → started. rawFree is SubmitPublish's.
func (s *Service) admit(ctx context.Context, sub core.Submission, wait bool, publish func(*Ticket)) (t *Ticket, rawFree bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := sub.Validate(); err != nil {
		return nil, false, err
	}
	if s.cfg.DisableLocalLanes {
		if sub.Raw == nil {
			return nil, false, fmt.Errorf("vet %s: %w", pkgOf(sub), ErrRawOnly)
		}
		// The record's key is where a remote verdict's Digest comes from.
		sub.ContentDigest()
	}
	if hit, ok := s.ck.LookupHit(&sub); ok {
		t, err := s.answer(ctx, sub, hit, publish)
		return t, err == nil, err
	}
	if wait {
		if err := s.q.Acquire(ctx); err != nil {
			return nil, false, err
		}
	} else if !s.q.TryAcquire() {
		s.m.rejected.Inc()
		s.emit(EventRejected, 0, pkgOf(sub), 0, ErrQueueFull)
		return nil, false, fmt.Errorf("vet %s: %w", pkgOf(sub), ErrQueueFull)
	}
	s.mu.Lock()
	if err := s.refusal(); err != nil {
		s.mu.Unlock()
		s.q.Release()
		return nil, false, err
	}
	r := s.open(&sub, publish)
	r.sub = sub
	// A caller context without cancellation rides the service's drainable
	// base instead, so a hard drain can abort the vet with a typed cause.
	if ctx.Done() != nil {
		r.ctx = ctx
	}
	if s.cfg.Deadline > 0 {
		r.deadline = time.Now().Add(s.cfg.Deadline)
	}
	s.addRecord(r)
	_, err = s.q.Enqueue(workqueue.Item{Seq: sub.Seq, Key: sub.Digest, Payload: sub.Raw, Mem: r})
	s.mu.Unlock()
	if err != nil {
		// Journal failure (the draining/closed races are excluded under
		// s.mu): settle the record so the accepted event still pairs with
		// a done and the books stay balanced.
		err = fmt.Errorf("vet %s: %w", r.pkg, err)
		s.settleRecord(r, nil, vcache.OutcomeBypass, err, 0)
		return nil, false, err
	}
	return &r.ticket, false, nil
}

// answer settles a submission LookupHit found on the submitting goroutine.
// It is accepted and published under the admission lock like a queued one;
// started, the checker's admit and cache.lookup spans, and done follow
// outside it. Nothing is enqueued or journaled: the verdict is known before
// Submit returns, so a crash has nothing to replay. Drain waits for the
// answers it let in through s.answering.
func (s *Service) answer(ctx context.Context, sub core.Submission, hit core.Hit, publish func(*Ticket)) (*Ticket, error) {
	s.mu.Lock()
	if err := s.refusal(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	r := s.open(&sub, publish)
	s.answering.Add(1)
	s.mu.Unlock()
	defer s.answering.Done()

	r.markClaimed()
	s.emit(EventStarted, r.seq, r.pkg, 0, nil)
	v, err := s.ck.AnswerHit(ctx, sub, hit)
	s.settleRecord(r, v, vcache.OutcomeHit, err, 0)
	return &r.ticket, nil
}

// refusal reports why admissions are refused once Drain has begun (nil
// before). The caller holds s.mu.
func (s *Service) refusal() error {
	switch {
	case s.closed:
		return ErrClosed
	case s.draining:
		return ErrDraining
	}
	return nil
}

// open reserves sub's seq if it pinned none, opens its record, books and
// emits the accepted event, and hands the ticket to publish. The caller
// holds s.mu.
func (s *Service) open(sub *core.Submission, publish func(*Ticket)) *record {
	if sub.Seq == 0 {
		sub.Seq = s.ck.ReserveVetSeqs(1)
	}
	r := newRecord(sub.Seq, pkgOf(*sub), sub.Digest)
	s.m.accepted.Inc()
	s.emit(EventAccepted, sub.Seq, r.pkg, 0, nil)
	if publish != nil {
		publish(&r.ticket)
	}
	return r
}

// job is one local claim: the lease, its record and submission, and, once
// vetted, the result Ack settles the record with.
type job struct {
	l    workqueue.Lease
	r    *record
	sub  core.Submission
	v    *core.Verdict
	out  vcache.Outcome
	err  error
	wall time.Duration
}

// The service's claimer has two faces over one claim path (claim) and one
// settle rule (settle): localQueue, the worker.Claimer the local lanes'
// executor loops over, and Remote, which a cluster coordinator drives on
// behalf of remote worker nodes that hold nothing of a claim but its
// workqueue.LeaseID.

// claim leases the lowest-seq pending item accept allows, waiting until
// until at most (workqueue.ClaimWhere's contract), whose verdict record is
// still live. An item whose record has settled — its verdict recorded
// under a lease that was then lost, or its ticket failed by a hard drain —
// has nothing left to vet: its lease is acked and the claim goes on.
func (s *Service) claim(ctx context.Context, until time.Time, accept func(workqueue.Item) bool) (workqueue.Lease, *record, error) {
	for {
		l, err := s.q.ClaimWhere(ctx, until, accept)
		if err != nil {
			return l, nil, err
		}
		if r := s.recordFor(l.Item().Seq); r != nil {
			return l, r, nil
		}
		l.Ack()
	}
}

// start flips r to claimed and emits its started event.
func (s *Service) start(r *record) {
	r.markClaimed()
	s.emit(EventStarted, r.seq, r.pkg, 0, nil)
}

// settle is the one settle rule, a local lane's Ack and a remote node's
// report alike: the verdict record first (first-wins), then the lease. A
// verdict computed under a lost lease is still the right verdict for
// those bytes, so it is recorded although the lease is gone; a second
// report for a settled record changes nothing. recorded says this report
// settled the record (r may be nil: already settled), held that the lease
// was still this claim's to ack.
func (s *Service) settle(r *record, id workqueue.LeaseID, v *core.Verdict, out vcache.Outcome, err error, wall time.Duration) (recorded, held bool) {
	if r != nil {
		recorded = s.settleRecord(r, v, out, err, wall)
	}
	return recorded, s.q.Ack(id) == nil
}

// localQueue is the service's queue as one lane's worker.Claimer: a claim
// is a queue lease plus its first-wins verdict record, held in the one job
// the lane owns. The executor has acked or nacked a claim and stopped its
// heartbeat before the lane claims again, so nothing still reads the job
// the next claim overwrites.
type localQueue struct {
	s *Service
	j job
}

// Claim takes the next lease whose record is still live. The vet context's
// parent is the caller's context (or the drainable base) and its deadline
// is claimDeadline's. Replayed items rebuild their submission from the
// durable payload.
func (c *localQueue) Claim(ctx context.Context) (worker.Claim[*job], error) {
	s := c.s
	l, r, err := s.claim(ctx, time.Time{}, nil)
	if err != nil {
		return worker.Claim[*job]{}, err
	}
	it := l.Item()
	j := &c.j
	*j = job{l: l, r: r}
	cl := worker.Claim[*job]{Lease: j, Parent: s.base, Deadline: s.claimDeadline(it), TTL: s.q.LeaseTTL()}
	if it.Mem == nil {
		j.sub = core.Submission{Raw: it.Payload, Seq: it.Seq, Digest: it.Key}
	} else {
		j.sub = r.takeSub()
		if r.ctx != nil {
			cl.Parent = r.ctx
		}
	}
	return cl, nil
}

func (*localQueue) Heartbeat(j *job) (bool, error) { return j.l.Heartbeat() != nil, nil }

// Nack and Ack settle the claim, then clear the job, so an idle lane keeps
// nothing of the submission it vetted last.
func (*localQueue) Nack(j *job, cause string) {
	j.l.Nack(errors.New(cause))
	*j = job{}
}

func (c *localQueue) Ack(j *job) {
	c.s.settle(j.r, j.l.ID(), j.v, j.out, j.err, j.wall)
	*j = job{}
}

// Remote is the service's claimer as a cluster coordinator drives it for
// remote worker nodes (internal/cluster): the local lanes' claim path and
// settle rule, addressed by the workqueue.LeaseID a claim frame carries.
// The queue's lease table is the only one; Remote keeps no state.
type Remote struct{ s *Service }

// Remote returns the service's claimer for remote worker nodes.
func (s *Service) Remote() Remote { return Remote{s} }

// Claim leases the lowest-seq pending submission accept allows, waiting
// until until at most, and marks it started — the started event fires as
// the claim leaves for its node. deadline is the vet's (zero: unbounded).
func (c Remote) Claim(ctx context.Context, until time.Time, accept func(workqueue.Item) bool) (l workqueue.Lease, deadline time.Time, err error) {
	l, r, err := c.s.claim(ctx, until, accept)
	if err != nil {
		return l, time.Time{}, err
	}
	c.s.start(r)
	return l, c.s.claimDeadline(l.Item()), nil
}

// Heartbeat extends the lease id names; workqueue.ErrLeaseLost means it is
// gone and the node must abandon the vet.
func (c Remote) Heartbeat(id workqueue.LeaseID) error { return c.s.q.Heartbeat(id) }

// Nack returns id's submission for another attempt (or dead-letters it
// when attempts are exhausted); workqueue.ErrLeaseLost when the lease is
// gone.
func (c Remote) Nack(id workqueue.LeaseID, cause error) error {
	_, err := c.s.q.Nack(id, cause)
	return err
}

// Ack books a node's report on the claim id names by the settle rule local
// lanes follow, with the same completion metrics. key is the content
// digest the claim carried, echoed by the node; Ack compares it and keeps
// nothing of it. A key that is not the digest of the submission whose
// record holds id.Seq means the report is about other bytes — sent before
// a restart that gave the seq to another submission — so Ack records
// nothing, leaves the lease alone and returns ErrStaleAck. The verdict's
// Digest, which the wire does not carry, is the record's once key has
// matched it.
func (c Remote) Ack(id workqueue.LeaseID, key []byte, v *core.Verdict, out vcache.Outcome, vetErr error, wall time.Duration) (recorded, held bool, err error) {
	r := c.s.recordFor(id.Seq)
	if r != nil {
		if string(key) != r.digest {
			return false, false, ErrStaleAck
		}
		if v != nil {
			v.Digest = r.digest
		}
	}
	recorded, held = c.s.settle(r, id, v, out, vetErr, wall)
	return recorded, held, nil
}

// vetClaim is the executor's Do: one claim through the staged vet
// pipeline, its result kept for Ack.
func (s *Service) vetClaim(ctx context.Context, j *job) error {
	r := j.r
	s.start(r)
	if !j.l.Valid() {
		// The lease expired while the started event's sinks ran: the
		// submission has been reclaimed and another lane owns it now. Vetting
		// it here too would be harmless for the verdict (content-determinism)
		// but would double-pay the emulation.
		return workqueue.ErrLeaseLost
	}
	t0 := time.Now()
	j.v, j.out, j.err = s.ck.VetOutcome(ctx, j.sub)
	j.wall = time.Since(t0)
	if errors.Is(j.err, context.Canceled) && errors.Is(context.Cause(ctx), ErrDraining) {
		// The service's hard drain, not the caller: surface the reason.
		j.err = fmt.Errorf("vet %s: %w: %w", r.pkg, ErrDraining, j.err)
	}
	return j.err
}

// settleRecord resolves one verdict record, books the completion exactly
// once (first report wins; a reclaim-raced duplicate changes nothing and
// reports false), and emits the done event.
func (s *Service) settleRecord(r *record, v *core.Verdict, out vcache.Outcome, err error, wall time.Duration) bool {
	if !r.settle(v, out, err, func() { s.m.finishJob(v, err, out) }) {
		return false
	}
	s.noteWall(wall)
	s.dropRecord(r.seq)
	var scan time.Duration
	if v != nil {
		scan = v.ScanTime
	}
	s.emit(EventDone, r.seq, r.pkg, scan, err)
	return true
}

// QueueStats snapshots queue activity (the healthz surface).
func (s *Service) QueueStats() workqueue.Stats { return s.q.Stats() }

// claimDeadline is the one deadline rule for a claimed item, local lane or
// claim frame (zero when unbounded): the admission deadline while the
// record still rides the item, or a fresh per-claim budget for replayed
// items.
func (s *Service) claimDeadline(it workqueue.Item) time.Time {
	if r, ok := it.Mem.(*record); ok {
		return r.deadline
	}
	if s.cfg.Deadline > 0 {
		return time.Now().Add(s.cfg.Deadline)
	}
	return time.Time{}
}

// deadLetter is the queue's OnDead callback: a submission that exhausted
// its claim attempts settles as failed with ErrPoisoned instead of
// cycling forever.
func (s *Service) deadLetter(it workqueue.Item, cause error) {
	if r := s.recordFor(it.Seq); r != nil {
		s.settleRecord(r, nil, vcache.OutcomeBypass, fmt.Errorf("vet %s: %w: %w", r.pkg, ErrPoisoned, cause), 0)
	}
}

// noteWall folds one completion's wall-clock cost into the drain-estimate
// EWMA.
func (s *Service) noteWall(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := s.wallEWMA.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if s.wallEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// DrainEstimate estimates the wall-clock time the current backlog (queued
// plus leased submissions) needs to drain through the lanes, from the
// smoothed cost of recent completions — the live queue-pressure signal
// behind the gateway's Retry-After hint. Zero means the queue is idle; an
// untrained estimate (no completions yet) assumes one second per wave,
// and the result is clamped to [1s, 5m].
func (s *Service) DrainEstimate() time.Duration {
	st := s.q.Stats()
	backlog := st.Depth + st.Leased
	if backlog == 0 {
		return 0
	}
	per := time.Duration(s.wallEWMA.Load())
	if per <= 0 {
		per = time.Second
	}
	waves := (backlog + s.cfg.Workers - 1) / s.cfg.Workers
	est := time.Duration(waves) * per
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est
}

// VetBatch drives an ordered batch through the service with backpressure
// and returns verdicts in submission order. For submissions without a
// pinned Seq it reserves one contiguous sequence block up front — exactly
// the numbers a serial Vet loop over the same slice would consume — so the
// returned verdicts are bit-identical to serial vetting. The first
// submission error is returned after the whole batch has settled.
func (s *Service) VetBatch(ctx context.Context, subs []core.Submission) ([]*core.Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cp := make([]core.Submission, len(subs))
	copy(cp, subs)
	unpinned := 0
	for i := range cp {
		if cp[i].Seq == 0 {
			unpinned++
		}
	}
	if unpinned > 0 {
		next := s.ck.ReserveVetSeqs(unpinned)
		for i := range cp {
			if cp[i].Seq == 0 {
				cp[i].Seq = next
				next++
			}
		}
	}

	tickets := make([]*Ticket, 0, len(cp))
	var submitErr error
	for i := range cp {
		t, err := s.SubmitWait(ctx, cp[i])
		if err != nil {
			submitErr = fmt.Errorf("vetsvc: batch submit %s: %w", pkgOf(cp[i]), err)
			break
		}
		tickets = append(tickets, t)
	}
	out := make([]*core.Verdict, len(cp))
	firstErr := submitErr
	for i, t := range tickets {
		t.r.wait(context.Background())
		out[i] = t.r.verdict
		if t.r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vetsvc: %s: %w", t.r.pkg, t.r.err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Close stops admissions, drains the queue, and waits for all in-flight
// vets to finish, however long that takes. Every accepted submission's
// ticket completes: nothing is lost, nothing runs twice. Close is
// idempotent. For a bounded shutdown, use Drain.
func (s *Service) Close() { s.Drain(context.Background()) }

// Drain is the graceful shutdown primitive: it stops admissions
// (subsequent submits fail with ErrDraining, then ErrClosed once the
// drain settles), stops the queue from accepting (claims continue until
// every queued and leased submission settles), and waits for the worker
// lanes. If ctx expires first, the drain hardens: every outstanding
// submission riding a service-owned context (admitted without caller
// cancellation) is cancelled with cause ErrDraining, its ticket settling
// with an error wrapping ErrDraining; submissions admitted under a
// caller-cancelable context are the caller's to abort, and Drain still
// waits for them. Idempotent and safe to call concurrently; every call
// returns only once all accepted submissions have settled. The intake
// journal closes with everything acked, so a drained shutdown replays
// nothing.
func (s *Service) Drain(ctx context.Context) {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.q.Shutdown()
	}
	s.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	if s.pool != nil {
		select {
		case <-s.pool.Done():
		case <-ctx.Done():
			s.baseCancel(ErrDraining)
			<-s.pool.Done()
		}
	} else if err := s.q.AwaitDrained(ctx); err != nil {
		// Coordinator mode, drain budget expired: remote nodes are beyond
		// the service's reach, so outstanding submissions cannot be
		// cancelled, only abandoned — their tickets settle with ErrDraining
		// and their journal entries stay unsettled for the next life to
		// replay. A straggler ack after this is absorbed by first-wins.
		s.baseCancel(ErrDraining)
		s.failOutstanding()
	}
	s.answering.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.q.Close()
}

// failOutstanding settles every live record with ErrDraining — the
// hard-drain tail of a coordinator-mode service.
func (s *Service) failOutstanding() {
	s.recMu.Lock()
	recs := make([]*record, 0, len(s.recs))
	for _, r := range s.recs {
		recs = append(recs, r)
	}
	s.recMu.Unlock()
	for _, r := range recs {
		err := fmt.Errorf("vet %s: %w", r.pkg, ErrDraining)
		s.settleRecord(r, nil, vcache.OutcomeBypass, err, 0)
	}
}

// Draining reports whether the service has begun shutting down (admissions
// rejected; queued and in-flight submissions may still be settling).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// emit routes one lifecycle event through the service's obs collector,
// which fans it out to every attached sink.
func (s *Service) emit(name string, seq int64, pkg string, scan time.Duration, err error) {
	s.m.col.Emit(obs.Event{
		Kind:    obs.KindService,
		Name:    name,
		Trace:   seq,
		Package: pkg,
		Dur:     scan,
		Err:     err,
	})
}

func pkgOf(sub core.Submission) string { return sub.PackageName() }
