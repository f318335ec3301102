package vetsvc

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/obs"
	"apichecker/internal/pipeline"
)

// TestAdmissionHitSkipsQueue: once an archive's verdict is cached, a
// resubmission is settled by the time Submit returns, with nothing queued
// or journaled — the journal neither grows nor replays it — and with the
// lane path's events, accounting and verdict. Only the accepted event is
// emitted under the admission lock.
func TestAdmissionHitSkipsQueue(t *testing.T) {
	ck, corpus := trainedChecker(t)
	raw, err := apk.Build(corpus.Program(0), testU)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	svc, err := Open(ck, Config{Workers: 2, QueueSize: 4, QueueDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var (
		mu     sync.Mutex
		events = map[int64][]string{} // seq -> event names, in order
		locked = map[int64][]bool{}   // seq -> whether s.mu was held at each
	)
	svc.Obs().AddSink(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind != obs.KindService {
			return
		}
		held := !svc.mu.TryLock()
		if !held {
			svc.mu.Unlock()
		}
		mu.Lock()
		events[ev.Trace] = append(events[ev.Trace], ev.Name)
		locked[ev.Trace] = append(locked[ev.Trace], held)
		mu.Unlock()
	}))

	tk, err := svc.Submit(context.Background(), core.Submission{Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	laneServed, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The ack's settle frame lands after the ticket settles; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for svc.QueueStats().Acked != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the lane never acked the first submission")
		}
		time.Sleep(time.Millisecond)
	}
	journal := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "workqueue.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size0, enq0, hits0 := journal(), svc.Obs().Counter("svc.queue.enqueued").Load(), svc.Metrics().CacheHits

	const n = 5
	for i := 0; i < n; i++ {
		tk, err := svc.Submit(context.Background(), core.Submission{Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		if st := tk.State(); st != "done" {
			t.Fatalf("resubmission %d: state %q when Submit returned, want done", i, st)
		}
		v, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v, laneServed) {
			t.Errorf("resubmission %d: verdict diverged from the lane-served one:\n got  %+v\n want %+v", i, v, laneServed)
		}
	}
	if size := journal(); size != size0 {
		t.Errorf("journal grew %d -> %d bytes over %d admission hits", size0, size, n)
	}
	if enq := svc.Obs().Counter("svc.queue.enqueued").Load(); enq != enq0 {
		t.Errorf("svc.queue.enqueued %d -> %d over %d admission hits", enq0, enq, n)
	}
	if hits := svc.Metrics().CacheHits; hits != hits0+n {
		t.Errorf("CacheHits %d -> %d, want +%d", hits0, hits, n)
	}
	mu.Lock()
	if len(events) != n+1 {
		t.Errorf("%d submission lifecycles, want %d", len(events), n+1)
	}
	for seq, got := range events {
		if want := []string{"accepted", "started", "done"}; !reflect.DeepEqual(got, want) {
			t.Errorf("seq %d: events %v, want %v", seq, got, want)
		}
		// A lane may start the first submission while its submitter still
		// holds the lock; the hits, submitted one at a time to idle lanes,
		// show which events their own goroutine emits under it.
		if want := []bool{true, false, false}; seq != tk.Seq() && !reflect.DeepEqual(locked[seq], want) {
			t.Errorf("seq %d: admission lock held at %v = %v, want %v", seq, got, locked[seq], want)
		}
	}
	mu.Unlock()

	svc.Close()
	again, err := Open(ck, Config{Workers: 1, QueueDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if r := again.Metrics().Replayed; r != 0 {
		t.Errorf("reopened service replayed %d submissions, want 0", r)
	}
}

// TestAdmissionHitTakesNoSlot: behind a stalled lane and a full queue, a
// submission whose verdict is cached is still answered, and a new one is
// still refused.
func TestAdmissionHitTakesNoSlot(t *testing.T) {
	ck, corpus := trainedChecker(t)
	cached := core.Submission{Program: corpus.Program(9)}
	if _, err := ck.Vet(context.Background(), cached); err != nil {
		t.Fatal(err)
	}
	var (
		once    sync.Once
		stalled = make(chan struct{})
		gate    = make(chan struct{})
	)
	svc := New(ck, Config{
		Workers:   1,
		QueueSize: 1,
		OnEvent: func(ev Event) {
			if ev.Type != EventStarted {
				return
			}
			first := false
			once.Do(func() { first = true })
			if first { // the head submission, on the only lane
				close(stalled)
				<-gate
			}
		},
	})
	defer svc.Close()
	defer close(gate)

	if _, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(0)}); err != nil {
		t.Fatal(err)
	}
	<-stalled
	if _, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(2)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("new submission into a full queue: err = %v, want ErrQueueFull", err)
	}
	tk, err := svc.Submit(context.Background(), cached)
	if err != nil {
		t.Fatalf("cached submission into a full queue: %v", err)
	}
	if st := tk.State(); st != "done" {
		t.Errorf("cached submission: state %q, want done", st)
	}
}

// TestAdmissionHitsRaceDrainAndSwap: admission hits run concurrently with a
// model swap and a drain. Every accepted seq gets exactly one done event,
// all of them before Drain returns; a digest submitted after the swap
// returns is vetted, not answered from the cache it emptied.
func TestAdmissionHitsRaceDrainAndSwap(t *testing.T) {
	ck, corpus := trainedChecker(t)
	const hot, hitters = 6, 4
	for i := 0; i <= hot; i++ { // programs 0..hot-1 for the hitters, hot for the swap probe
		if _, err := ck.Vet(context.Background(), core.Submission{Program: corpus.Program(i)}); err != nil {
			t.Fatal(err)
		}
	}
	svc := New(ck, Config{Workers: 2, QueueSize: 16})
	defer svc.Close()

	var (
		mu       sync.Mutex
		accepted = map[int64]int{}
		done     = map[int64]int{}
		lookup   = map[int64]string{} // seq -> note of its cache.lookup span
		drained  atomic.Bool
	)
	svc.Obs().AddSink(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind != obs.KindService {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch ev.Name {
		case EventAccepted.String():
			accepted[ev.Trace]++
		case EventDone.String():
			if drained.Load() {
				t.Errorf("seq %d: done emitted after Drain returned", ev.Trace)
			}
			done[ev.Trace]++
		}
	}))
	ck.Obs().AddSink(obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindSpan && ev.Name == pipeline.StageCacheLookup {
			mu.Lock()
			lookup[ev.Trace] = ev.Note
			mu.Unlock()
		}
	}))
	probe := core.Submission{Program: corpus.Program(hot)}
	tk, err := svc.Submit(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if st := tk.State(); st != "done" {
		t.Fatalf("cached probe before the swap: state %q, want done (answered at admission)", st)
	}

	var running, warm sync.WaitGroup
	for h := 0; h < hitters; h++ {
		running.Add(1)
		warm.Add(1)
		go func(h int) {
			defer running.Done()
			for i := 0; ; i++ {
				if i == 20 {
					warm.Done()
				}
				_, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program((h + i) % hot)})
				switch {
				case err == nil, errors.Is(err, ErrQueueFull):
				case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
					if i < 20 {
						warm.Done()
					}
					return
				default:
					t.Errorf("hitter %d: %v", h, err)
					if i < 20 {
						warm.Done()
					}
					return
				}
			}
		}(h)
	}
	warm.Wait()
	if _, err := ck.SwapModel(ck.Parts()); err != nil {
		t.Fatal(err)
	}
	tk, err = svc.SubmitWait(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Drain(context.Background())
	drained.Store(true)
	running.Wait()

	mu.Lock()
	defer mu.Unlock()
	if note := lookup[tk.Seq()]; note != "miss" {
		t.Errorf("probe submitted after the swap: cache.lookup %q, want miss (vetted on a lane)", note)
	}
	if len(done) != len(accepted) {
		t.Errorf("%d seqs accepted, %d done", len(accepted), len(done))
	}
	for seq, n := range accepted {
		if n != 1 || done[seq] != 1 {
			t.Errorf("seq %d: accepted %d times, done %d times; want 1 and 1", seq, n, done[seq])
		}
	}
}
