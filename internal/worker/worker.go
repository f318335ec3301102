// Package worker is the one claim loop of the vetting cluster: lanes that
// loop claim → execute → ack over a Claimer. The executor owns the lease
// discipline — a per-lane heartbeat timer while a long emulation runs,
// lease-loss cancellation with cause workqueue.ErrLeaseLost, panic
// isolation (a panic nacks the claim, the lane lives), and the stop rule
// (a vet cut short is nacked, a finished one is still reported). The
// Claimer owns where claims come from and how they settle; Do owns what a
// claim means.
//
// Local lanes and cluster nodes run this same executor. The local queue is
// one Claimer (Start here over a bare workqueue.Queue; vetsvc binds each
// lease to its first-wins verdict record), and package cluster's stream
// lane, which claims over its claim stream to the coordinator, is the
// other — so the lease
// semantics (heartbeats, ErrLeaseLost cancellation, first-wins verdicts)
// are written once for both deployments.
package worker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"apichecker/internal/parallel"
	"apichecker/internal/workqueue"
)

// Claim is one claimed unit of work as the executor sees it.
type Claim[L any] struct {
	// Lease is the claimer's handle on the claim: what Do runs and what
	// Heartbeat, Ack and Nack settle.
	Lease L

	// Parent is the vet context's parent; nil selects the executor's own
	// context, so that stopping the executor cuts the vet short. A claimer
	// that supplies a parent owns the vet's cancellation.
	Parent context.Context

	// Deadline, when non-zero, bounds the vet.
	Deadline time.Time

	// TTL is the lease's time to live (0: it never expires), the base of
	// the heartbeat rule.
	TTL time.Duration
}

// Claimer is where a lane's claims come from and how they settle. One
// executor lane calls Claim, Ack and Nack; Heartbeat runs on the lane's
// timer, concurrently with the vet, and never overlaps Claim, Ack or Nack
// on the same lane: the vet's report waits for a beat in flight.
type Claimer[L any] interface {
	// Claim blocks for the next claim. An error ends the lane: the source
	// is drained or closed, or ctx — the executor's — is done.
	Claim(ctx context.Context) (Claim[L], error)

	// Heartbeat extends l's lease. lost means the lease is gone and is the
	// only answer that cancels the vet; err is a failure to ask, which does
	// not — the next beat asks again.
	Heartbeat(l L) (lost bool, err error)

	// Ack reports l's finished vet.
	Ack(l L)

	// Nack returns l for another attempt.
	Nack(l L, cause string)
}

// Executor is the one claim loop over claims of type L.
type Executor[L any] struct {
	// HeartbeatEvery is the heartbeat rule: 0 beats every third of the
	// claim's lease TTL, a positive value on that period, a negative value
	// never. A claim whose period comes out <= 0 arms no timer (a stalled
	// lane's lease then expires on its TTL, which is what reclaim drills
	// want).
	HeartbeatEvery time.Duration

	// Do executes one claim and returns the vet's error. Its context is
	// cancelled with cause workqueue.ErrLeaseLost when a heartbeat finds the
	// lease lost, and Do may return workqueue.ErrLeaseLost itself; either
	// way nothing is reported. Do must not settle the claim.
	Do func(ctx context.Context, l L) error

	// OnPanic, when set, observes each panic recovered from Do or Ack,
	// before the claim is nacked with the panic text.
	OnPanic func(l L, v any)
}

// Pool is a running set of lanes.
type Pool struct{ done chan struct{} }

// Start runs the given number of lanes, each over the Claimer that claimer
// returns when called on the lane's goroutine, until that lane's Claim
// fails. ctx is the stop signal: cancelling it ends each lane at its next
// Claim and cuts short the vets whose claim has no Parent.
func (e Executor[L]) Start(ctx context.Context, lanes int, claimer func() Claimer[L]) *Pool {
	p := &Pool{done: make(chan struct{})}
	go func() {
		parallel.Run(lanes, lanes, func(int) { (&lane[L]{e: &e, c: claimer(), stop: ctx}).loop() })
		close(p.done)
	}()
	return p
}

// Done is closed once every lane has exited.
func (p *Pool) Done() <-chan struct{} { return p.done }

// Wait blocks until every lane has exited.
func (p *Pool) Wait() { <-p.done }

// lane is one claim loop. Only its own goroutine runs claims; the heartbeat
// fields are shared with the timer's goroutine under mu.
type lane[L any] struct {
	e    *Executor[L]
	c    Claimer[L]
	stop context.Context

	// beat is held while a heartbeat is out, so disarm can wait for it.
	beat sync.Mutex

	// One timer per lane, re-armed per claim, beats while a vet runs.
	// cancel is nil between vets, so a beat that finds it nil was
	// overtaken by the end of its vet and does nothing.
	mu     sync.Mutex
	timer  *time.Timer
	lease  L
	cancel context.CancelCauseFunc
	every  time.Duration
}

func (ln *lane[L]) loop() {
	for {
		c, err := ln.c.Claim(ln.stop)
		if err != nil {
			return
		}
		ln.handle(c)
	}
}

// handle runs one claim: Do under the claim's one vet context, with the
// lane's timer beating while it runs, then the report the rules call for.
// A panic in Do or in the report is recovered here, counted, and nacked
// with its text, so a submission that panics on every attempt is
// dead-lettered by the attempt limit instead of killing a process per
// attempt.
func (ln *lane[L]) handle(c Claim[L]) {
	ctx := c.Parent
	if ctx == nil {
		ctx = ln.stop
	}
	if !c.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, c.Deadline)
		defer cancel()
	}
	every := ln.e.HeartbeatEvery
	if every == 0 {
		every = c.TTL / 3
	}
	if every > 0 {
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		ln.arm(c.Lease, cancel, every)
	}
	defer func() {
		if p := recover(); p != nil {
			ln.disarm()
			if ln.e.OnPanic != nil {
				ln.e.OnPanic(c.Lease, p)
			}
			ln.c.Nack(c.Lease, fmt.Sprintf("claim panicked: %v", p))
		}
	}()

	err := ln.e.Do(ctx, c.Lease)
	ln.disarm()
	switch {
	case errors.Is(err, workqueue.ErrLeaseLost) || errors.Is(context.Cause(ctx), workqueue.ErrLeaseLost):
		// Reclaimed mid-vet: the re-issued claim reports the verdict, and
		// this one is abandoned unreported.
	case errors.Is(err, context.Canceled) && ln.stop.Err() != nil:
		// Stopped mid-vet: hand the claim back for prompt re-issue.
		ln.c.Nack(c.Lease, "worker stopping")
	default:
		ln.c.Ack(c.Lease)
	}
}

// arm points the lane's timer at l, beating every period until disarm.
func (ln *lane[L]) arm(l L, cancel context.CancelCauseFunc, every time.Duration) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.lease, ln.cancel, ln.every = l, cancel, every
	if ln.timer == nil {
		ln.timer = time.AfterFunc(every, ln.tick)
	} else {
		ln.timer.Reset(every)
	}
}

// disarm stops the beats and waits for a beat already out, which then
// does nothing more.
func (ln *lane[L]) disarm() {
	ln.mu.Lock()
	if ln.cancel != nil {
		var zero L
		ln.lease, ln.cancel = zero, nil
		ln.timer.Stop()
	}
	ln.mu.Unlock()
	ln.beat.Lock()
	ln.beat.Unlock()
}

// tick is the timer's function: one heartbeat, then re-arm. Only a lost
// lease cancels the vet. A failure to ask does not: a transient partition
// must not kill a healthy emulation, and if the lease really expired, the
// next beat or the first-wins verdict record handles it.
func (ln *lane[L]) tick() {
	ln.beat.Lock()
	defer ln.beat.Unlock()
	ln.mu.Lock()
	l, armed := ln.lease, ln.cancel != nil
	ln.mu.Unlock()
	if !armed {
		return
	}
	lost, err := ln.c.Heartbeat(l)
	ln.mu.Lock()
	defer ln.mu.Unlock()
	switch {
	case ln.cancel == nil:
		// The vet finished while the beat was out; disarm waits for it.
	case lost && err == nil:
		ln.cancel(workqueue.ErrLeaseLost)
	default:
		ln.timer.Reset(ln.every)
	}
}

// Config tunes a pool over a bare queue.
type Config struct {
	// Lanes is the claim-loop count; <= 0 selects 1.
	Lanes int

	// Do executes one claim. The context is canceled (with cause
	// workqueue.ErrLeaseLost) if the lease is lost mid-execution — the
	// item has been reclaimed and another lane owns it, so the callback
	// should abandon its work. Do may consult the lease (Item, Valid) but
	// must not settle it: the pool acks on return and nacks on panic.
	Do func(ctx context.Context, l *workqueue.Lease)

	// HeartbeatEvery extends the lease while Do runs, under the executor's
	// rule: 0 every third of the queue's lease TTL, positive on that
	// period, negative never.
	HeartbeatEvery time.Duration

	// OnPanic, when set, observes each recovered Do panic.
	OnPanic func(it workqueue.Item, v any)
}

// Start launches cfg.Lanes lanes over q: the executor's bare-queue entry
// point. They run until the queue's claims drain (Shutdown) or fail
// (Close), then the pool's Done closes. Claims use a background context
// on purpose — a service-level hard drain cancels the vets, not the claim
// loop, so aborted items still settle their leases.
func Start(q *workqueue.Queue, cfg Config) *Pool {
	return Executor[*workqueue.Lease]{
		HeartbeatEvery: cfg.HeartbeatEvery,
		Do: func(ctx context.Context, l *workqueue.Lease) error {
			cfg.Do(ctx, l)
			return nil
		},
		OnPanic: func(l *workqueue.Lease, v any) {
			if cfg.OnPanic != nil {
				cfg.OnPanic(l.Item(), v)
			}
		},
	}.Start(context.Background(), max(cfg.Lanes, 1), func() Claimer[*workqueue.Lease] { return queue{q} })
}

// queue is the bare local queue as a Claimer: a claim is a lease.
type queue struct{ q *workqueue.Queue }

func (c queue) Claim(ctx context.Context) (Claim[*workqueue.Lease], error) {
	l, err := c.q.Claim(ctx)
	return Claim[*workqueue.Lease]{Lease: l, TTL: c.q.LeaseTTL()}, err
}

func (queue) Heartbeat(l *workqueue.Lease) (bool, error) { return l.Heartbeat() != nil, nil }
func (queue) Ack(l *workqueue.Lease)                     { l.Ack() }
func (queue) Nack(l *workqueue.Lease, cause string)      { l.Nack(errors.New(cause)) }
