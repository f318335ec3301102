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
	"apichecker/internal/dataset"
	"apichecker/internal/emulator"
	"apichecker/internal/obs"
	"apichecker/internal/vcache"
	"apichecker/internal/workqueue"
)

// trainedCheckerCfg is trainedChecker with a custom core configuration
// (cache and triage toggles for the equivalence matrix).
func trainedCheckerCfg(t *testing.T, cfg core.Config) (*core.Checker, *dataset.Corpus) {
	t.Helper()
	dcfg := dataset.DefaultConfig()
	dcfg.NumApps = 300
	corpus, err := dataset.Generate(testU, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := core.TrainFromCorpus(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ck, corpus
}

// TestQueueMatchesDirectService is the decomposition's equivalence proof:
// the queue/claim/execute path with N workers — durable journal on, a
// duplicate-heavy workload — produces the bit-identical verdict set a
// serial Vet loop over the same submissions does, with the verdict cache
// on and off and the triage band on and off.
func TestQueueMatchesDirectService(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cache  int
		lo, hi float64
	}{
		{"cache-on/triage-off", 0, 0, 0},
		{"cache-off/triage-off", -1, 0, 0},
		{"cache-on/triage-on", 0, 0.05, 0.95},
		{"cache-off/triage-on", -1, 0.05, 0.95},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.VerdictCache = tc.cache
			cfg.TriageLo, cfg.TriageHi = tc.lo, tc.hi
			ckSerial, corpus := trainedCheckerCfg(t, cfg)
			ckQueue, _ := trainedCheckerCfg(t, cfg)

			// Duplicate-heavy: 40 submissions over 25 distinct programs.
			subs := make([]core.Submission, 40)
			for i := range subs {
				subs[i] = core.Submission{Program: corpus.Program(i % 25)}
			}

			serial := make([]*core.Verdict, len(subs))
			for i, sub := range subs {
				v, err := ckSerial.Vet(context.Background(), sub)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = v
			}

			svc, err := Open(ckQueue, Config{
				Workers:   8,
				QueueSize: 16,
				QueueDir:  t.TempDir(),
				LeaseTTL:  10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := svc.VetBatch(context.Background(), subs)
			svc.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if !reflect.DeepEqual(got[i], serial[i]) {
					t.Errorf("submission %d: queue verdict diverged from serial:\n got  %+v\n want %+v",
						i, got[i], serial[i])
				}
			}
		})
	}
}

// TestLeaseExpiryRevetsExactlyOnce is the reclaim drill: a worker stalls
// mid-claim, its lease expires, and the submission is reclaimed and
// re-vetted by another lane — exactly one emulation, a bit-identical
// verdict, and no double-ack.
func TestLeaseExpiryRevetsExactlyOnce(t *testing.T) {
	ck, corpus := trainedChecker(t)
	ckRef, _ := trainedChecker(t)
	sub := core.Submission{Program: corpus.Program(3)}
	want, err := ckRef.Vet(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}

	var (
		stallOnce sync.Once
		stalled   = make(chan struct{})
		release   = make(chan struct{})
	)
	svc := New(ck, Config{
		Workers:        2,
		QueueSize:      4,
		LeaseTTL:       100 * time.Millisecond,
		HeartbeatEvery: -1, // heartbeats off: a stalled lane must lose its lease
		MaxAttempts:    3,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name != EventStarted {
			return
		}
		first := false
		stallOnce.Do(func() { first = true })
		if first {
			close(stalled)
			<-release
		}
	})
	defer svc.Close()

	runs0 := emulator.RunCount()
	tk, err := svc.Submit(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	<-stalled
	if st := tk.State(); st != "claimed" {
		t.Errorf("ticket state while stalled = %q, want claimed", st)
	}

	// The stalled lane holds the claim past its TTL; the other lane
	// reclaims and finishes the vet while the first is still wedged.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := tk.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	close(release)
	svc.Close()

	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-vetted verdict diverged:\n got  %+v\n want %+v", got, want)
	}
	if st := tk.State(); st != "done" {
		t.Errorf("ticket state = %q, want done", st)
	}
	if delta := emulator.RunCount() - runs0; delta != 1 {
		t.Errorf("emulator ran %d times, want exactly 1", delta)
	}
	m := svc.Metrics()
	if m.Completed != 1 || m.Failed != 0 {
		t.Errorf("Completed = %d, Failed = %d, want 1, 0", m.Completed, m.Failed)
	}
	if m.Reclaims < 1 {
		t.Errorf("Reclaims = %d, want >= 1", m.Reclaims)
	}
	if m.QueueAcked != 1 {
		t.Errorf("QueueAcked = %d, want exactly 1 (no double-ack)", m.QueueAcked)
	}
}

// TestRemoteClaimerSettleRule: the coordinator's face of the service's
// claimer keeps the local lanes' rules, addressed by LeaseID alone. A claim
// is started and carries its admission deadline; a stale token is refused
// at every verb; a report whose key is another submission's digest is
// refused and changes nothing; a report settles the record, then the
// lease, with the digest taken from the record once the key has matched it
// and the outcome the node reported; a repeated report changes nothing;
// and a
// report that lands after its lease was reclaimed is still recorded, while
// the item the reclaim left pending is skipped, not handed out again.
func TestRemoteClaimerSettleRule(t *testing.T) {
	ck, corpus := trainedChecker(t)
	ckRef, _ := trainedChecker(t)
	ctx := context.Background()
	raws := make([][]byte, 2)
	want := make([]*core.Verdict, 2)
	for i := range raws {
		var err error
		if raws[i], err = apk.Build(corpus.Program(i), testU); err != nil {
			t.Fatal(err)
		}
		if want[i], err = ckRef.Vet(ctx, core.Submission{Raw: raws[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// report is what a node sends: the wire carries no digest.
	report := func(i int) *core.Verdict {
		v := *want[i]
		v.Digest = ""
		return &v
	}
	svc, err := Open(ck, Config{QueueSize: 4, LeaseTTL: 50 * time.Millisecond, Deadline: time.Minute, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tks := make([]*Ticket, len(raws))
	for i, raw := range raws {
		if tks[i], err = svc.Submit(ctx, core.Submission{Raw: raw}); err != nil {
			t.Fatal(err)
		}
	}
	rc := svc.Remote()
	soon := func() time.Time { return time.Now().Add(20 * time.Millisecond) }

	l, deadline, err := rc.Claim(ctx, soon(), nil)
	if err != nil {
		t.Fatal(err)
	}
	id := l.ID()
	if id.Seq != tks[0].Seq() || tks[0].State() != "claimed" || deadline.IsZero() {
		t.Fatalf("claim %+v, ticket %d %q, deadline %v; want the first ticket, claimed, under its admission deadline",
			id, tks[0].Seq(), tks[0].State(), deadline)
	}
	stale := workqueue.LeaseID{Seq: id.Seq, Token: id.Token + 1}
	if err := rc.Heartbeat(stale); !errors.Is(err, workqueue.ErrLeaseLost) {
		t.Fatalf("heartbeat under a stale token = %v, want ErrLeaseLost", err)
	}
	if err := rc.Nack(stale, errors.New("not mine")); !errors.Is(err, workqueue.ErrLeaseLost) {
		t.Fatalf("nack under a stale token = %v, want ErrLeaseLost", err)
	}
	if err := rc.Heartbeat(id); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	// A report about other bytes is refused and changes nothing.
	if recorded, held, err := rc.Ack(id, []byte(want[1].Digest), report(1), vcache.OutcomeMiss, nil, time.Millisecond); !errors.Is(err, ErrStaleAck) || recorded || held {
		t.Fatalf("report under another key: recorded=%v held=%v, %v; want neither and ErrStaleAck", recorded, held, err)
	}
	// The node answered from its own verdict cache.
	if recorded, held, err := rc.Ack(id, []byte(want[0].Digest), report(0), vcache.OutcomeHit, nil, time.Millisecond); !recorded || !held || err != nil {
		t.Fatalf("report: recorded=%v held=%v, %v; want both", recorded, held, err)
	}
	if got, err := tks[0].Wait(ctx); err != nil || !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("first ticket = %+v, %v; want %+v", got, err, want[0])
	}
	if recorded, held, err := rc.Ack(id, []byte(want[0].Digest), report(0), vcache.OutcomeMiss, nil, time.Millisecond); recorded || held || err != nil {
		t.Fatalf("repeated report: recorded=%v held=%v, %v; want neither", recorded, held, err)
	}
	if out := tks[0].Outcome(); out != vcache.OutcomeHit {
		t.Fatalf("first ticket's outcome = %v, want the reported hit", out)
	}

	// The second claim outlives its lease; a claim that takes nothing
	// reclaims it, and its node's report lands afterwards.
	l, _, err = rc.Claim(ctx, soon(), nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, _, err := rc.Claim(ctx, soon(), func(workqueue.Item) bool { return false }); !errors.Is(err, workqueue.ErrNothingClaimable) {
		t.Fatalf("claim that takes nothing = %v", err)
	}
	if recorded, held, err := rc.Ack(l.ID(), []byte(want[1].Digest), report(1), vcache.OutcomeMiss, nil, time.Millisecond); !recorded || held || err != nil {
		t.Fatalf("report under a reclaimed lease: recorded=%v held=%v, %v; want recorded only", recorded, held, err)
	}
	if got, err := tks[1].Wait(ctx); err != nil || !reflect.DeepEqual(got, want[1]) {
		t.Fatalf("second ticket = %+v, %v; want %+v", got, err, want[1])
	}
	if _, _, err := rc.Claim(ctx, soon(), nil); !errors.Is(err, workqueue.ErrNothingClaimable) {
		t.Fatalf("claim after the late report = %v: settled work was handed out again", err)
	}
	if st := svc.QueueStats(); st.Depth != 0 || st.Leased != 0 || st.Reclaimed != 1 || st.Acked != 2 {
		t.Fatalf("queue = %+v; want nothing pending or leased, 1 reclaim, 2 acks", st)
	}
	if m := svc.Metrics(); m.Completed != 2 || m.Failed != 0 {
		t.Fatalf("Completed = %d, Failed = %d; want 2, 0", m.Completed, m.Failed)
	}
}

// TestStaleAckCannotSettleAnotherSubmission: an ack a node sent before a
// coordinator restart cannot settle whatever submission holds its seq
// after it. Life 1, in coordinator mode with a journal, claims and acks
// one raw archive at a time through Remote until a compaction leaves the
// journal with no enqueue, and keeps its first ack. Life 2, a new checker
// over the same journal and model, admits a malicious app, and then the
// first ack arrives again, as a lane re-sends an ack whose answer it never
// saw. The compaction's mark keeps the journal's seq watermark, so life 2
// hands out a fresh seq and the stale ack names a settled one; were the
// watermark lost, life 2 would hand out seq 1 again, and the stale ack's
// key, the old app's digest, would be refused. Either way it records
// nothing, and the new ticket answers with the new app's own verdict.
func TestStaleAckCannotSettleAnotherSubmission(t *testing.T) {
	ck, corpus := trainedChecker(t)
	ckRef, _ := trainedChecker(t)
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{QueueSize: 4, QueueDir: dir, LeaseTTL: time.Minute, DisableLocalLanes: true}
	journal := filepath.Join(dir, "workqueue.log")
	size := func() int64 {
		fi, err := os.Stat(journal)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// vet is what a node computes and reports for corpus app i: the raw
	// archive, and the verdict without the digest the wire does not carry.
	vet := func(i int) ([]byte, *core.Verdict, string) {
		raw, err := apk.Build(corpus.Program(i), testU)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ckRef.Vet(ctx, core.Submission{Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		key := v.Digest
		v.Digest = ""
		return raw, v, key
	}

	svc, err := Open(ck, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		staleID  workqueue.LeaseID
		staleKey string
		staleV   *core.Verdict
		n        int
	)
	for grown := size(); ; {
		if n == 1000 {
			t.Fatalf("%d settled archives and the journal is %d bytes: it never compacted", n, size())
		}
		raw, v, key := vet(n)
		tk, err := svc.Submit(ctx, core.Submission{Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := svc.Remote().Claim(ctx, time.Now().Add(time.Second), nil)
		if err != nil {
			t.Fatal(err)
		}
		if recorded, _, err := svc.Remote().Ack(l.ID(), []byte(key), v, vcache.OutcomeMiss, nil, time.Millisecond); !recorded || err != nil {
			t.Fatalf("archive %d: recorded=%v, %v", n, recorded, err)
		}
		if _, err := tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			staleID, staleKey, staleV = l.ID(), key, v
		}
		n++
		now := size()
		if now < grown {
			break // this settle compacted the journal
		}
		grown = now
	}
	svc.Close()

	g, data := ck.ArtifactBytes()
	a, err := core.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := a.Instantiate(core.NodeConfig{})
	if err != nil || ck2.Generation().Digest != g.Digest {
		t.Fatalf("life 2's checker: %v", err)
	}
	svc2, err := Open(ck2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// On a failure the ticket may be left pending, with no node to
		// claim it: abandon it rather than wait.
		ctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		defer cancel()
		svc2.Drain(ctx)
	}()
	m := n
	for ; m < corpus.Len(); m++ {
		if _, v, _ := vet(m); v.Malicious && v.Package != staleV.Package {
			break
		}
	}
	if m == corpus.Len() {
		t.Fatalf("no malicious app among corpus apps %d and on", n)
	}
	raw, want, key := vet(m)
	tk, err := svc2.Submit(ctx, core.Submission{Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	stale := *staleV
	recorded, held, err := svc2.Remote().Ack(staleID, []byte(staleKey), &stale, vcache.OutcomeMiss, nil, time.Millisecond)
	if maxSeq := svc2.q.ReplayMaxSeq(); tk.Seq() != maxSeq+1 {
		t.Fatalf("life 2's first fresh seq is %d, want %d, the one after the journal's highest", tk.Seq(), maxSeq+1)
	}
	reused := tk.Seq() == staleID.Seq
	t.Logf("life 1 settled %d archives; life 2 gave %s seq %d, and the stale ack of %s names seq %d",
		n, want.Package, tk.Seq(), staleV.Package, staleID.Seq)
	if recorded || held || (reused && !errors.Is(err, ErrStaleAck)) {
		t.Fatalf("the stale ack of %s: recorded=%v held=%v, %v; want nothing recorded (ErrStaleAck when the seq was reused)",
			staleV.Package, recorded, held, err)
	}
	l, _, err := svc2.Remote().Claim(ctx, time.Now().Add(time.Second), nil)
	if err != nil || l.Item().Seq != tk.Seq() {
		t.Fatalf("claim after the stale ack: %v, %v; want ticket %d still to vet", l, err, tk.Seq())
	}
	if recorded, _, err := svc2.Remote().Ack(l.ID(), []byte(key), want, vcache.OutcomeMiss, nil, time.Millisecond); !recorded || err != nil {
		t.Fatalf("the real ack: recorded=%v, %v", recorded, err)
	}
	got, err := tk.Wait(ctx)
	if err != nil || got.Package != want.Package || got.Malicious != want.Malicious || got.Digest != key {
		t.Fatalf("ticket %d answers %+v, %v; want %s, malicious=%v, digest %.12s", tk.Seq(), got, err, want.Package, want.Malicious, key)
	}
}

// TestCoordinatorLeaseExpires: a coordinator always leases with a TTL. A
// node that claims a submission and then goes silent — no heartbeat, no
// report, as after a SIGKILL — holds it until the TTL passes, and then the
// next claim gets it again. The queue's clock is moved, not waited on.
func TestCoordinatorLeaseExpires(t *testing.T) {
	var skew atomic.Int64
	queueNow = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	defer func() { queueNow = nil }()

	ck, corpus := trainedChecker(t)
	ctx := context.Background()
	svc, err := Open(ck, Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// No node will report the lease the test leaves held: abandon it.
		ctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		defer cancel()
		svc.Drain(ctx)
	}()
	if ttl := svc.Config().LeaseTTL; ttl != coordinatorLeaseTTL {
		t.Fatalf("coordinator lease TTL = %v, want %v", ttl, coordinatorLeaseTTL)
	}
	raw, err := apk.Build(corpus.Program(0), testU)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := svc.Submit(ctx, core.Submission{Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	rc := svc.Remote()
	soon := func() time.Time { return queueNow().Add(20 * time.Millisecond) }
	first, _, err := rc.Claim(ctx, soon(), nil)
	if err != nil {
		t.Fatal(err)
	}
	skew.Store(int64(coordinatorLeaseTTL - time.Second))
	if _, _, err := rc.Claim(ctx, soon(), nil); !errors.Is(err, workqueue.ErrNothingClaimable) {
		t.Fatalf("claim inside the silent node's TTL = %v, want nothing claimable", err)
	}
	skew.Store(int64(coordinatorLeaseTTL + time.Second))
	again, _, err := rc.Claim(ctx, soon(), nil)
	if err != nil {
		t.Fatalf("claim past the silent node's TTL = %v: the submission is held for ever", err)
	}
	if again.Item().Seq != tk.Seq() || again.Item().Attempts != 2 || again.ID() == first.ID() {
		t.Fatalf("re-issued lease %+v (attempt %d), first %+v; want ticket %d's second attempt",
			again.ID(), again.Item().Attempts, first.ID(), tk.Seq())
	}
	if st := svc.QueueStats(); st.Reclaimed != 1 || st.Leased != 1 {
		t.Fatalf("queue = %+v; want 1 reclaim and the new lease", st)
	}
}

// TestPoisonedSubmissionDeadLetters: a submission whose every claim
// exhausts its lease is dead-lettered with ErrPoisoned instead of cycling
// through the queue forever — and the service keeps serving.
func TestPoisonedSubmissionDeadLetters(t *testing.T) {
	ck, corpus := trainedChecker(t)
	block := make(chan struct{})
	svc := New(ck, Config{
		Workers:        2,
		QueueSize:      4,
		LeaseTTL:       50 * time.Millisecond,
		HeartbeatEvery: -1,
		MaxAttempts:    1,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name == EventStarted {
			<-block
		}
	})

	tk, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := tk.Wait(ctx)
	if v != nil || !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Wait = %v, %v; want nil verdict wrapping ErrPoisoned", v, err)
	}
	if st := tk.State(); st != "failed" {
		t.Errorf("ticket state = %q, want failed", st)
	}
	close(block)
	svc.Close()

	m := svc.Metrics()
	if m.DeadLettered != 1 || m.Failed != 1 || m.Completed != 0 {
		t.Errorf("DeadLettered = %d, Failed = %d, Completed = %d; want 1, 1, 0",
			m.DeadLettered, m.Failed, m.Completed)
	}
}

// TestPanicAfterLeaseLossIsCounted: a vet that stalls past its lease TTL
// and then panics is recovered and counted, although its nack finds the
// lease already reclaimed — every recovered panic is counted, not only the
// ones whose nack landed.
func TestPanicAfterLeaseLossIsCounted(t *testing.T) {
	ck, corpus := trainedChecker(t)
	var (
		first    sync.Once
		revetted = make(chan struct{})
	)
	svc := New(ck, Config{
		Workers:        2,
		QueueSize:      4,
		LeaseTTL:       50 * time.Millisecond,
		HeartbeatEvery: -1,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name != EventStarted {
			return
		}
		stall := false
		first.Do(func() { stall = true })
		if stall {
			<-revetted // the other lane reclaimed the lease and vetted the submission
			panic("vet stalled past its lease")
		}
	})
	tk, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	close(revetted)
	svc.Close()
	if m := svc.Metrics(); m.WorkerPanics != 1 || m.Reclaims < 1 || m.QueueNacked != 0 {
		t.Fatalf("WorkerPanics = %d, Reclaims = %d, QueueNacked = %d; want 1, >= 1, 0 (the nack found the lease gone)",
			m.WorkerPanics, m.Reclaims, m.QueueNacked)
	}
}

// TestCrashSafeIntakeReplays is the kill-and-restart drill: submissions
// journaled by a previous life — enqueued, partially acked, then killed —
// are replayed on the next Open, vetted exactly once each, and nothing
// acked before the kill runs again.
func TestCrashSafeIntakeReplays(t *testing.T) {
	ck, corpus := trainedChecker(t)
	ckRef, _ := trainedChecker(t)
	dir := t.TempDir()

	raws := make([][]byte, 3)
	for i := range raws {
		data, err := apk.Build(corpus.Program(i), testU)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = data
	}

	// Previous life: raw archives journaled at intake; seq 1 settles, the
	// process dies with seq 2 claimed-but-unacked and seq 3 still queued.
	q, _, err := workqueue.Open(workqueue.Config{Capacity: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range raws {
		if !q.TryAcquire() {
			t.Fatal("queue full")
		}
		if _, err := q.Enqueue(workqueue.Item{Payload: raw}); err != nil {
			t.Fatal(err)
		}
	}
	l, err := q.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l.Item().Seq != 1 {
		t.Fatalf("claimed seq %d, want 1", l.Item().Seq)
	}
	if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Claim(context.Background()); err != nil { // seq 2: never acked
		t.Fatal(err)
	}
	q.Close()

	// Next life: the service replays seqs 2 and 3 and vets them.
	svc, err := Open(ck, Config{Workers: 2, QueueSize: 8, QueueDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	deadline := time.Now().Add(30 * time.Second)
	for svc.Metrics().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("replayed submissions never completed: %+v", svc.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
	m := svc.Metrics()
	if m.Replayed != 2 || m.Accepted != 2 || m.Completed != 2 {
		t.Fatalf("Replayed = %d, Accepted = %d, Completed = %d; want 2, 2, 2", m.Replayed, m.Accepted, m.Completed)
	}

	// The replayed vets are bit-identical to direct vetting of the same
	// archives: resubmitting answers from the verdict cache (proof the
	// replay populated it) and matches an independent serial checker.
	for i := 1; i <= 2; i++ {
		tk, err := svc.Submit(context.Background(), core.Submission{Raw: raws[i]})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ckRef.Vet(context.Background(), core.Submission{Raw: raws[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replayed archive %d verdict diverged:\n got  %+v\n want %+v", i, got, want)
		}
	}
	if m := svc.Metrics(); m.CacheHits < 2 {
		t.Errorf("CacheHits = %d, want >= 2 (replay must have warmed the cache)", m.CacheHits)
	}

	// A drained shutdown acks everything: the journal replays nothing.
	svc.Close()
	q2, replayed, err := workqueue.Open(workqueue.Config{Capacity: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if len(replayed) != 0 {
		t.Fatalf("drained journal replayed %d items, want 0", len(replayed))
	}
}

// TestRetryAfterTracksQueuePressure: the drain estimate is zero when the
// queue is idle and grows with the backlog once lanes are saturated.
func TestRetryAfterTracksQueuePressure(t *testing.T) {
	ck, corpus := trainedChecker(t)
	gate := make(chan struct{})
	svc := New(ck, Config{
		Workers:   1,
		QueueSize: 4,
	})
	onEvent(svc, func(ev obs.Event) {
		if ev.Name == EventStarted {
			<-gate
		}
	})
	defer svc.Close()

	if est := svc.DrainEstimate(); est != 0 {
		t.Fatalf("idle DrainEstimate = %v, want 0", est)
	}
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := svc.Submit(context.Background(), core.Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if est := svc.DrainEstimate(); est < time.Second {
		t.Errorf("backlogged DrainEstimate = %v, want >= 1s", est)
	}
	close(gate)
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
