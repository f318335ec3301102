package worker

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apichecker/internal/workqueue"
)

// fakeLease is one claim of fakeClaimer.
type fakeLease struct{}

// fakeClaimer is a Claimer with no queue and no wire behind it: Heartbeat
// answers what the test set, and every settlement is written down.
type fakeClaimer struct {
	lost  bool
	hbErr error
	beats atomic.Int32

	mu      sync.Mutex
	reports []string
}

func (f *fakeClaimer) Claim(context.Context) (Claim[*fakeLease], error) {
	return Claim[*fakeLease]{}, workqueue.ErrDrained
}

func (f *fakeClaimer) Heartbeat(*fakeLease) (bool, error) {
	f.beats.Add(1)
	return f.lost, f.hbErr
}

func (f *fakeClaimer) Ack(*fakeLease) { f.report("ack") }

func (f *fakeClaimer) Nack(_ *fakeLease, cause string) { f.report("nack: " + cause) }

func (f *fakeClaimer) report(s string) {
	f.mu.Lock()
	f.reports = append(f.reports, s)
	f.mu.Unlock()
}

// waitFor polls cond for up to five seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestExecutorContract holds the executor to each of its rules once, over a
// fake Claimer: one claim through one lane, and what the claim's context
// saw, what was reported, what was counted, and whether a timer was armed.
func TestExecutorContract(t *testing.T) {
	errTransport := errors.New("connection refused")
	for _, tc := range []struct {
		name  string
		every time.Duration // Executor.HeartbeatEvery
		ttl   time.Duration // Claim.TTL
		lost  bool          // Heartbeat's answer
		hbErr error
		// do is the vet; stop stops the executor.
		do func(ctx context.Context, stop func(), f *fakeClaimer) error

		wantCause   error // context.Cause of the vet's context when do returned
		wantReports []string
		wantPanics  int
		wantTimer   bool
	}{{
		name:  "a lost heartbeat cancels the vet with ErrLeaseLost and reports nothing",
		every: 5 * time.Millisecond, lost: true,
		do: func(ctx context.Context, _ func(), _ *fakeClaimer) error {
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Second):
			}
			return ctx.Err()
		},
		wantCause: workqueue.ErrLeaseLost, wantTimer: true,
	}, {
		name:  "a heartbeat transport error does not cancel",
		every: 5 * time.Millisecond, hbErr: errTransport,
		do: func(ctx context.Context, _ func(), f *fakeClaimer) error {
			waitFor(func() bool { return f.beats.Load() >= 3 || ctx.Err() != nil })
			return ctx.Err()
		},
		wantReports: []string{"ack"}, wantTimer: true,
	}, {
		name: "a panic becomes a nack carrying the panic text, and is counted",
		do: func(context.Context, func(), *fakeClaimer) error {
			panic("poisoned archive")
		},
		wantReports: []string{"nack: claim panicked: poisoned archive"}, wantPanics: 1,
	}, {
		name: "a stop during a vet nacks it",
		do: func(ctx context.Context, stop func(), _ *fakeClaimer) error {
			stop()
			<-ctx.Done()
			return ctx.Err()
		},
		wantCause: context.Canceled, wantReports: []string{"nack: worker stopping"},
	}, {
		name: "a vet that finished before the stop is acked",
		do: func(_ context.Context, stop func(), _ *fakeClaimer) error {
			stop()
			return nil
		},
		wantCause: context.Canceled, wantReports: []string{"ack"},
	}, {
		name:  "a negative period arms no timer, whatever the TTL",
		every: -1, ttl: 3 * time.Millisecond,
		do: func(context.Context, func(), *fakeClaimer) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		},
		wantReports: []string{"ack"},
	}, {
		name: "a zero period over a lease that never expires arms no timer",
		do: func(context.Context, func(), *fakeClaimer) error {
			time.Sleep(20 * time.Millisecond)
			return nil
		},
		wantReports: []string{"ack"},
	}, {
		name: "a zero period beats every third of the TTL",
		ttl:  15 * time.Millisecond,
		do: func(ctx context.Context, _ func(), f *fakeClaimer) error {
			waitFor(func() bool { return f.beats.Load() >= 2 })
			return ctx.Err()
		},
		wantReports: []string{"ack"}, wantTimer: true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeClaimer{lost: tc.lost, hbErr: tc.hbErr}
			stopCtx, stop := context.WithCancel(context.Background())
			defer stop()
			var (
				cause  error
				panics int
			)
			e := Executor[*fakeLease]{
				HeartbeatEvery: tc.every,
				Do: func(ctx context.Context, l *fakeLease) error {
					defer func() { cause = context.Cause(ctx) }()
					return tc.do(ctx, stop, f)
				},
				OnPanic: func(*fakeLease, any) { panics++ },
			}
			ln := &lane[*fakeLease]{e: &e, c: f, stop: stopCtx}
			ln.handle(Claim[*fakeLease]{Lease: &fakeLease{}, TTL: tc.ttl})

			if !errors.Is(cause, tc.wantCause) || (tc.wantCause == nil && cause != nil) {
				t.Errorf("vet context cause = %v, want %v", cause, tc.wantCause)
			}
			f.mu.Lock()
			reports := f.reports
			f.mu.Unlock()
			if !reflect.DeepEqual(reports, tc.wantReports) && len(reports)+len(tc.wantReports) > 0 {
				t.Errorf("reports = %q, want %q", reports, tc.wantReports)
			}
			if panics != tc.wantPanics {
				t.Errorf("%d panics counted, want %d", panics, tc.wantPanics)
			}
			ln.mu.Lock()
			armed := ln.timer != nil
			ln.mu.Unlock()
			if armed != tc.wantTimer {
				t.Errorf("timer armed = %v, want %v (%d beats)", armed, tc.wantTimer, f.beats.Load())
			}
		})
	}
}

// loopClaimer feeds claims to a running lane one at a time and signals
// each settlement, without allocating.
type loopClaimer struct {
	claims  chan Claim[*fakeLease]
	settled chan struct{}
}

func (c *loopClaimer) Claim(context.Context) (Claim[*fakeLease], error) {
	cl, ok := <-c.claims
	if !ok {
		return cl, workqueue.ErrDrained
	}
	return cl, nil
}

func (c *loopClaimer) Heartbeat(*fakeLease) (bool, error) { return false, nil }
func (c *loopClaimer) Ack(*fakeLease)                     { c.settled <- struct{}{} }
func (c *loopClaimer) Nack(*fakeLease, string)            { c.settled <- struct{}{} }

// TestClaimAllocatesNothing pins what the executor itself costs per claim
// with heartbeats off and a no-op Do: claim, execute and ack allocate
// nothing. worker.Pool before the executor cost 3 allocations per claim (a
// cancel-cause context whether or not anything could cancel it).
func TestClaimAllocatesNothing(t *testing.T) {
	c := &loopClaimer{claims: make(chan Claim[*fakeLease]), settled: make(chan struct{})}
	p := Executor[*fakeLease]{
		HeartbeatEvery: -1,
		Do:             func(context.Context, *fakeLease) error { return nil },
	}.Start(context.Background(), 1, func() Claimer[*fakeLease] { return c })
	cl := Claim[*fakeLease]{Lease: &fakeLease{}, TTL: time.Minute}
	allocs := testing.AllocsPerRun(1000, func() {
		c.claims <- cl
		<-c.settled
	})
	close(c.claims)
	p.Wait()
	if allocs != 0 {
		t.Errorf("a claim costs %.1f allocations in the executor, want 0", allocs)
	}
}

// beatClaimer is a Claimer whose Heartbeat blocks until released, and
// whose Ack writes down whether a beat was still out.
type beatClaimer struct {
	fakeClaimer
	entered, release chan struct{}
	once             sync.Once
	out, ackedInBeat atomic.Bool
}

func (c *beatClaimer) Heartbeat(*fakeLease) (bool, error) {
	c.out.Store(true)
	c.once.Do(func() { close(c.entered) })
	<-c.release
	c.out.Store(false)
	return false, nil
}

func (c *beatClaimer) Ack(*fakeLease) {
	c.ackedInBeat.Store(c.out.Load())
	c.report("ack")
}

// TestReportWaitsForBeatInFlight: a vet that returns while its heartbeat
// is out is reported only after the heartbeat has returned, so a claimer's
// Heartbeat never overlaps Claim, Ack or Nack on the same lane (package
// cluster sends all four on one stream).
func TestReportWaitsForBeatInFlight(t *testing.T) {
	c := &beatClaimer{entered: make(chan struct{}), release: make(chan struct{})}
	e := Executor[*fakeLease]{
		HeartbeatEvery: time.Millisecond,
		Do: func(context.Context, *fakeLease) error {
			<-c.entered
			time.AfterFunc(20*time.Millisecond, func() { close(c.release) })
			return nil
		},
	}
	ln := &lane[*fakeLease]{e: &e, c: c, stop: context.Background()}
	ln.handle(Claim[*fakeLease]{Lease: &fakeLease{}})
	if c.ackedInBeat.Load() {
		t.Fatal("Ack ran while a heartbeat was still out")
	}
	if !reflect.DeepEqual(c.reports, []string{"ack"}) {
		t.Fatalf("reports = %q, want one ack", c.reports)
	}
}
