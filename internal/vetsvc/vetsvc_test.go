package vetsvc

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"apichecker/internal/behavior"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/obs"
	"apichecker/internal/vcache"
)

var testU = framework.MustGenerate(framework.TestConfig(3000))

// onEvent attaches fn to svc's lifecycle events (obs.KindService). Attach
// it right after New, before the first Submit, to see every event.
func onEvent(svc *Service, fn func(obs.Event)) {
	svc.Obs().AddSink(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindService {
			fn(ev)
		}
	}))
}

// trainedChecker builds an independent trained checker; training is
// deterministic, so two calls yield behaviourally identical checkers with
// independent vet-sequence counters.
func trainedChecker(t *testing.T) (*core.Checker, *dataset.Corpus) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumApps = 500
	corpus, err := dataset.Generate(testU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := core.TrainFromCorpus(corpus, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ck, corpus
}

func programs(c *dataset.Corpus, n int) []*behavior.Program {
	out := make([]*behavior.Program, n)
	for i := range out {
		out[i] = c.Program(i % c.Len())
	}
	return out
}

// TestServiceMatchesSerialVet is the determinism contract: verdicts out of
// the concurrent service are bit-identical to a serial Vet loop over the
// same submission order, through both the batch and the ticket paths.
func TestServiceMatchesSerialVet(t *testing.T) {
	ckSerial, corpus := trainedChecker(t)
	ckBatch, _ := trainedChecker(t)
	ckTickets, _ := trainedChecker(t)
	apps := programs(corpus, 60)

	serial := make([]*core.Verdict, len(apps))
	for i, p := range apps {
		v, err := ckSerial.Vet(context.Background(), core.Submission{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = v
	}

	// Batch path: small queue, so VetBatch exercises backpressure waits.
	svc := New(ckBatch, Config{Workers: 8, QueueSize: 4})
	defer svc.Close()
	subs := make([]core.Submission, len(apps))
	for i, p := range apps {
		subs[i] = core.Submission{Program: p}
	}
	batch, err := svc.VetBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if *batch[i] != *serial[i] {
			t.Fatalf("batch submission %d (%s): service %+v vs serial %+v",
				i, apps[i].PackageName, *batch[i], *serial[i])
		}
	}

	// Ticket path: sequences are reserved at admission in Submit order.
	svc2 := New(ckTickets, Config{Workers: 8, QueueSize: len(apps)})
	defer svc2.Close()
	tickets := make([]*Ticket, len(apps))
	for i, p := range apps {
		tk, err := svc2.Submit(context.Background(), core.Submission{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		v, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if *v != *serial[i] {
			t.Fatalf("ticket submission %d: service %+v vs serial %+v", i, *v, *serial[i])
		}
	}

	if got := svc.Metrics(); got.Completed != uint64(len(apps)) {
		t.Fatalf("batch service completed %d, want %d", got.Completed, len(apps))
	}
}

// TestBackpressureQueueFull fills the bounded queue behind a stalled
// worker, observes ErrQueueFull, then confirms the queue drains and
// accepts again.
func TestBackpressureQueueFull(t *testing.T) {
	ck, corpus := trainedChecker(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	releaseGate := func() { gateOnce.Do(func() { close(gate) }) }
	svc := New(ck, Config{
		Workers:   1,
		QueueSize: 2,
	})
	// The sink runs synchronously in the worker: blocking it stalls the
	// lane with the queue intact.
	onEvent(svc, func(ev obs.Event) {
		if ev.Name == EventStarted {
			<-gate
		}
	})
	// Unwind order matters: the gate must open before Close waits for the
	// stalled lane.
	defer svc.Close()
	defer releaseGate()

	sub := func(i int) core.Submission {
		return core.Submission{Program: corpus.Program(i)}
	}
	// Head submission is dequeued by the lane, which stalls in the sink.
	var tickets []*Ticket
	tk0, err := svc.Submit(context.Background(), sub(0))
	if err != nil {
		t.Fatal(err)
	}
	tickets = append(tickets, tk0)
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the head submission")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue is now empty and the only lane is stalled: the next two fill
	// the queue deterministically.
	for i := 1; i < 3; i++ {
		tk, err := svc.Submit(context.Background(), sub(i))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}

	if _, err := svc.Submit(context.Background(), sub(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into full queue: err = %v, want ErrQueueFull", err)
	}

	releaseGate() // release the lane; the queue drains
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := svc.Submit(context.Background(), sub(4))
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	m := svc.Metrics()
	if m.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", m.Rejected)
	}
	if m.Accepted != 4 || m.Completed != 4 {
		t.Fatalf("accepted/completed = %d/%d, want 4/4", m.Accepted, m.Completed)
	}
}

// TestDeadlineTimeout: an unmeetable per-submission deadline aborts the
// emulation, surfaces as ErrDeadlineExceeded (wrapping
// context.DeadlineExceeded), and is counted in the metrics.
func TestDeadlineTimeout(t *testing.T) {
	ck, corpus := trainedChecker(t)
	svc := New(ck, Config{Workers: 2, QueueSize: 8, Deadline: time.Nanosecond})
	defer svc.Close()

	const n = 6
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = core.Submission{Program: corpus.Program(i)}
	}
	if _, err := svc.VetBatch(context.Background(), subs); err == nil {
		t.Fatal("batch under 1ns deadline succeeded")
	} else {
		if !errors.Is(err, core.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded underneath", err)
		}
	}

	m := svc.Metrics()
	if m.Timeouts != n {
		t.Fatalf("timeouts = %d, want %d", m.Timeouts, n)
	}
	if m.Completed != 0 {
		t.Fatalf("completed = %d, want 0", m.Completed)
	}
}

// TestGracefulShutdown: Close drains the queue — every accepted submission
// completes exactly once, and nothing is accepted afterwards.
func TestGracefulShutdown(t *testing.T) {
	ck, corpus := trainedChecker(t)
	svc := New(ck, Config{Workers: 4, QueueSize: 8})

	const n = 30
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := svc.SubmitWait(context.Background(), core.Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	svc.Close()

	seen := make(map[int64]bool)
	for i, tk := range tickets {
		v, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("submission %d lost in shutdown: %v", i, err)
		}
		if v == nil {
			t.Fatalf("submission %d: nil verdict", i)
		}
		if seen[tk.Seq()] {
			t.Fatalf("sequence %d delivered twice", tk.Seq())
		}
		seen[tk.Seq()] = true
	}

	if _, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	if _, err := svc.SubmitWait(context.Background(), core.Submission{Program: corpus.Program(0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit-wait after close: err = %v, want ErrClosed", err)
	}

	m := svc.Metrics()
	if m.Accepted != n || m.Completed != n {
		t.Fatalf("accepted/completed = %d/%d, want %d/%d", m.Accepted, m.Completed, n, n)
	}
	if m.QueueDepth != 0 || m.InFlight != 0 {
		t.Fatalf("queue/in-flight = %d/%d after close, want 0/0", m.QueueDepth, m.InFlight)
	}
	// Close is idempotent.
	svc.Close()
}

// TestHardDrainPropagatesReason: when the drain budget expires with a
// submission still in flight, the abort error wraps the typed ErrDraining
// (distinct from ErrClosed) on top of the context cancellation, mid-drain
// admissions fail with ErrDraining, and the drained completion is counted
// in its own metrics bucket.
func TestHardDrainPropagatesReason(t *testing.T) {
	ck, corpus := trainedChecker(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	svc := New(ck, Config{
		Workers:   1,
		QueueSize: 2,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name == EventStarted {
			<-gate
		}
	})

	tk, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(0)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the submission")
		}
		time.Sleep(time.Millisecond)
	}

	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		svc.Drain(ctx)
	}()
	// Mid-drain admissions report the shutdown reason, not a bare close.
	for !svc.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(1)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit mid-drain: err = %v, want ErrDraining", err)
	}
	// Let the 50ms budget expire (hard cancel fires), then release the
	// stalled lane so the canceled vet unwinds.
	time.Sleep(time.Second)
	release()
	<-drainDone

	_, err = tk.Wait(context.Background())
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("in-flight error = %v, want wrapped ErrDraining", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight error = %v, want context.Canceled underneath", err)
	}
	m := svc.Metrics()
	if m.Drained != 1 || m.Canceled != 0 {
		t.Fatalf("drained/canceled = %d/%d, want 1/0", m.Drained, m.Canceled)
	}
	// After the drain resolves the service is closed, plain and simple.
	if _, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: err = %v, want ErrClosed", err)
	}
}

// TestMetricsAccounting checks the reliability counters and latency
// quantiles over a real batch.
func TestMetricsAccounting(t *testing.T) {
	ck, corpus := trainedChecker(t)
	svc := New(ck, Config{Workers: 8, QueueSize: 16})
	defer svc.Close()

	const n = 120
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = core.Submission{Program: corpus.Program(i % corpus.Len())}
	}
	verdicts, err := svc.VetBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}

	var crashes, crashedSubs, fallbacks uint64
	for _, v := range verdicts {
		crashes += uint64(v.Crashes)
		if v.Crashes > 0 {
			crashedSubs++
		}
		if v.FellBack {
			fallbacks++
		}
	}

	m := svc.Metrics()
	if m.Completed != n {
		t.Fatalf("completed = %d, want %d", m.Completed, n)
	}
	if m.Crashes != crashes || m.CrashedSubmissions != crashedSubs || m.Fallbacks != fallbacks {
		t.Fatalf("crash accounting = %d/%d/%d, want %d/%d/%d",
			m.Crashes, m.CrashedSubmissions, m.Fallbacks, crashes, crashedSubs, fallbacks)
	}
	var engineTotal uint64
	for _, c := range m.EngineRuns {
		engineTotal += c
	}
	if engineTotal != n {
		t.Fatalf("engine runs total %d, want %d", engineTotal, n)
	}
	if m.ScanMean <= 0 || m.ScanP50 <= 0 {
		t.Fatalf("latency stats empty: %+v", m)
	}
	if m.ScanP50 > m.ScanP95 || m.ScanP95 > m.ScanP99 {
		t.Fatalf("quantiles not monotone: p50=%f p95=%f p99=%f", m.ScanP50, m.ScanP95, m.ScanP99)
	}
}

// TestMetricsIsARead: a Metrics snapshot writes nothing to the service's
// collector — no gauge appears or moves — so /metrics shows the same rows
// whether or not anything took one.
func TestMetricsIsARead(t *testing.T) {
	ck, corpus := trainedChecker(t)
	svc := New(ck, Config{Workers: 2})
	subs := make([]core.Submission, 6)
	for i := range subs {
		subs[i] = core.Submission{Program: corpus.Program(i)}
	}
	if _, err := svc.VetBatch(context.Background(), subs); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	before := svc.Obs().Gauges()
	if m := svc.Metrics(); m.HeapLiveBytes == 0 {
		t.Error("Metrics().HeapLiveBytes = 0, want the process's live heap")
	}
	if after := svc.Obs().Gauges(); !maps.Equal(before, after) {
		t.Fatalf("Metrics() changed the service's gauges:\nbefore %v\nafter  %v", before, after)
	}
}

// TestEventLogOrdering: a service-event sink sees accepted → started → done
// for every submission, with matching sequence numbers.
func TestEventLogOrdering(t *testing.T) {
	ck, corpus := trainedChecker(t)
	var mu sync.Mutex
	state := make(map[int64]string)
	bad := false
	svc := New(ck, Config{
		Workers:   4,
		QueueSize: 8,
	})
	onEvent(svc, func(ev obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		prev, ok := state[ev.Trace]
		switch ev.Name {
		case EventAccepted:
			if ok {
				bad = true
			}
		case EventStarted:
			if !ok || prev != EventAccepted {
				bad = true
			}
		case EventDone:
			if !ok || prev != EventStarted {
				bad = true
			}
		}
		state[ev.Trace] = ev.Name
	})
	const n = 25
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = core.Submission{Program: corpus.Program(i)}
	}
	if _, err := svc.VetBatch(context.Background(), subs); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	mu.Lock()
	defer mu.Unlock()
	if bad {
		t.Fatal("event ordering violated")
	}
	if len(state) != n {
		t.Fatalf("saw %d submission lifecycles, want %d", len(state), n)
	}
	for seq, last := range state {
		if last != EventDone {
			t.Fatalf("seq %d ended in state %v", seq, last)
		}
	}
}

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// TestEngineCountersAreResolvedOnce: per-engine completions count on
// handles resolved once, under the same svc.engine.<name> counters that
// Metrics and /metrics read, so booking a miss allocates nothing and
// EngineRuns still counts each emulated verdict under its engine.
func TestEngineCountersAreResolvedOnce(t *testing.T) {
	ck, corpus := trainedChecker(t)
	svc := New(ck, Config{Workers: 2, QueueSize: 8})
	defer svc.Close()
	subs := make([]core.Submission, 24)
	for i, p := range programs(corpus, len(subs)) {
		subs[i] = core.Submission{Program: p}
	}
	verdicts, err := svc.VetBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]uint64)
	for _, v := range verdicts {
		want[v.Engine]++
	}
	if got := svc.Metrics().EngineRuns; !maps.Equal(got, want) {
		t.Errorf("EngineRuns %v, want %v", got, want)
	}
	counters := svc.Obs().Counters()
	for engine, n := range want {
		if got := counters[enginePrefix+engine]; got != n {
			t.Errorf("counter %s%s = %d, want %d", enginePrefix, engine, got, n)
		}
	}

	if raceDetector {
		return // the race detector allocates on its own
	}
	v := verdicts[0]
	if n := testing.AllocsPerRun(100, func() { svc.m.finishJob(v, nil, vcache.OutcomeMiss) }); n != 0 {
		t.Errorf("booking a miss allocates %.1f times, want 0", n)
	}
}
