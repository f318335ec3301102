package workqueue

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// fakeClock is an injectable queue clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// mustOpen builds a queue or fails the test.
func mustOpen(t *testing.T, cfg Config) (*Queue, []Item) {
	t.Helper()
	q, replayed, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q, replayed
}

// enqueue admits one item through the full slot protocol.
func enqueue(t *testing.T, q *Queue, it Item) int64 {
	t.Helper()
	if !q.TryAcquire() {
		t.Fatal("enqueue: queue full")
	}
	seq, err := q.Enqueue(it)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	return seq
}

// claim claims with a short deadline so a wedged queue fails the test
// instead of hanging it.
func claim(t *testing.T, q *Queue) *Lease {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l, err := q.Claim(ctx)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	return l
}

func TestClaimOrderIsSeqOrder(t *testing.T) {
	q, _ := mustOpen(t, Config{Capacity: 8})
	defer q.Close()
	for i := 0; i < 5; i++ {
		if seq := enqueue(t, q, Item{Key: fmt.Sprintf("k%d", i)}); seq != int64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	for want := int64(1); want <= 5; want++ {
		l := claim(t, q)
		if got := l.Item().Seq; got != want {
			t.Fatalf("claimed seq %d, want %d", got, want)
		}
		if l.Item().Attempts != 1 {
			t.Fatalf("attempts = %d, want 1", l.Item().Attempts)
		}
		if err := l.Ack(); err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	q.Shutdown()
	if _, err := q.Claim(context.Background()); !errors.Is(err, ErrDrained) {
		t.Fatalf("claim after drain = %v, want ErrDrained", err)
	}
	st := q.Stats()
	if st.Enqueued != 5 || st.Acked != 5 || st.Depth != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCapacityBackpressure(t *testing.T) {
	q, _ := mustOpen(t, Config{Capacity: 2})
	defer q.Close()
	enqueue(t, q, Item{})
	enqueue(t, q, Item{})
	if q.TryAcquire() {
		t.Fatal("TryAcquire succeeded at capacity")
	}
	// A claim frees the admission slot.
	l := claim(t, q)
	if !q.TryAcquire() {
		t.Fatal("TryAcquire failed after claim freed a slot")
	}
	q.Release()
	if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
}

func TestNackRequeuesThenDeadLetters(t *testing.T) {
	var (
		deadMu sync.Mutex
		dead   []Item
		cause  error
	)
	q, _ := mustOpen(t, Config{Capacity: 4, MaxAttempts: 2, OnDead: func(it Item, err error) {
		deadMu.Lock()
		dead = append(dead, it)
		cause = err
		deadMu.Unlock()
	}})
	defer q.Close()
	seq := enqueue(t, q, Item{Key: "poison"})

	l := claim(t, q)
	requeued, err := l.Nack(errors.New("boom 1"))
	if err != nil || !requeued {
		t.Fatalf("first nack: requeued=%v err=%v", requeued, err)
	}
	l = claim(t, q)
	if l.Item().Seq != seq || l.Item().Attempts != 2 {
		t.Fatalf("reissued claim = %+v", l.Item())
	}
	requeued, err = l.Nack(errors.New("boom 2"))
	if err != nil || requeued {
		t.Fatalf("final nack: requeued=%v err=%v", requeued, err)
	}

	deadMu.Lock()
	defer deadMu.Unlock()
	if len(dead) != 1 || dead[0].Seq != seq {
		t.Fatalf("dead letters = %+v", dead)
	}
	if cause == nil || cause.Error() != "boom 2" {
		t.Fatalf("dead cause = %v", cause)
	}
	st := q.Stats()
	if st.Nacked != 2 || st.DeadLettered != 1 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLeaseExpiryReclaimsWithoutBurningSeq(t *testing.T) {
	clk := newFakeClock()
	q, _ := mustOpen(t, Config{Capacity: 4, LeaseTTL: time.Second, MaxAttempts: 3, Now: clk.Now})
	defer q.Close()
	seq := enqueue(t, q, Item{Key: "slow"})

	stale := claim(t, q)
	clk.Advance(2 * time.Second)

	// The next Claim reclaims the expired lease and re-issues the same
	// seq with a fresh lease.
	fresh := claim(t, q)
	if fresh.Item().Seq != seq || fresh.Item().Attempts != 2 {
		t.Fatalf("reissued claim = %+v, want seq %d attempt 2", fresh.Item(), seq)
	}
	if stale.Valid() {
		t.Fatal("stale lease still valid after reclaim")
	}
	if err := stale.Heartbeat(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale heartbeat = %v, want ErrLeaseLost", err)
	}
	if err := stale.Ack(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale ack = %v, want ErrLeaseLost", err)
	}
	if err := fresh.Ack(); err != nil {
		t.Fatalf("fresh ack: %v", err)
	}
	if st := q.Stats(); st.Reclaimed != 1 || st.Acked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The reclaim did not burn a sequence number.
	if next := enqueue(t, q, Item{}); next != seq+1 {
		t.Fatalf("next seq = %d, want %d", next, seq+1)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	q, _ := mustOpen(t, Config{Capacity: 4, LeaseTTL: time.Second, Now: clk.Now})
	defer q.Close()
	enqueue(t, q, Item{})

	l := claim(t, q)
	clk.Advance(700 * time.Millisecond)
	if err := l.Heartbeat(); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clk.Advance(700 * time.Millisecond) // past the original deadline, inside the extended one

	// Another claim triggers a reclaim scan; the heartbeat must have kept
	// the lease alive through it.
	enqueue(t, q, Item{})
	l2 := claim(t, q)
	if !l.Valid() {
		t.Fatal("heartbeat did not extend the lease")
	}
	if st := q.Stats(); st.Reclaimed != 0 {
		t.Fatalf("reclaimed = %d, want 0", st.Reclaimed)
	}
	if err := l2.Ack(); err != nil {
		t.Fatal(err)
	}
	if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseIDSettlesWithoutTheHandle: a holder that kept only a claim's
// LeaseID — all a remote node echoes back — heartbeats, nacks and acks it
// through the queue's one lease table. A re-issued claim gets a new token,
// the old ID is refused at every verb, and an ack by ID is journaled like
// Lease.Ack: a restart replays nothing.
func TestLeaseIDSettlesWithoutTheHandle(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	q, _ := mustOpen(t, Config{Capacity: 4, LeaseTTL: time.Second, Dir: dir, Now: clk.Now})
	seq := enqueue(t, q, Item{Key: "k", Payload: []byte("archive")})

	first := claim(t, q).ID()
	if first.Seq != seq {
		t.Fatalf("claim ID = %+v, want seq %d", first, seq)
	}
	clk.Advance(700 * time.Millisecond)
	if err := q.Heartbeat(first); err != nil {
		t.Fatalf("heartbeat by ID: %v", err)
	}
	clk.Advance(700 * time.Millisecond) // past the claim's deadline, inside the extended one
	if requeued, err := q.Nack(first, errors.New("node stopping")); err != nil || !requeued {
		t.Fatalf("nack by ID: requeued=%v err=%v", requeued, err)
	}

	again := claim(t, q)
	second := again.ID()
	if second.Seq != seq || second.Token == first.Token {
		t.Fatalf("re-issued claim ID = %+v after %+v, want the same seq under a new token", second, first)
	}
	if err := q.Heartbeat(first); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("heartbeat by a stale ID = %v, want ErrLeaseLost", err)
	}
	if _, err := q.Nack(first, nil); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("nack by a stale ID = %v, want ErrLeaseLost", err)
	}
	if err := q.Ack(first); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("ack by a stale ID = %v, want ErrLeaseLost", err)
	}
	if !again.Valid() {
		t.Fatal("a stale ID's refusals touched the live claim")
	}
	if err := q.Ack(second); err != nil {
		t.Fatalf("ack by ID: %v", err)
	}
	if again.Valid() {
		t.Fatal("the handle of a claim acked by ID is still valid")
	}
	if st := q.Stats(); st.Acked != 1 || st.Nacked != 1 || st.Reclaimed != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2, replayed := mustOpen(t, Config{Capacity: 4, Dir: dir})
	defer q2.Close()
	if len(replayed) != 0 {
		t.Fatalf("replayed %d items after an ack by ID, want 0", len(replayed))
	}
}

func TestRestartReplaysOnlyUnacked(t *testing.T) {
	dir := t.TempDir()

	q, replayed := mustOpen(t, Config{Capacity: 8, Dir: dir})
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d items", len(replayed))
	}
	for i := 1; i <= 4; i++ {
		enqueue(t, q, Item{Key: fmt.Sprintf("app%d", i), Payload: []byte(fmt.Sprintf("apk-%d", i))})
	}
	// Settle seq 1; leave seq 2 leased-but-unacked and 3..4 pending, then
	// die (Close leaves the journal exactly as a kill would).
	if l := claim(t, q); l.Item().Seq != 1 {
		t.Fatalf("claimed %d, want 1", l.Item().Seq)
	} else if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
	claim(t, q) // seq 2: claimed, never acked
	q.Close()

	q2, replayed := mustOpen(t, Config{Capacity: 8, Dir: dir})
	defer q2.Close()
	if len(replayed) != 3 {
		t.Fatalf("replayed %d items, want 3", len(replayed))
	}
	for i, want := range []int64{2, 3, 4} {
		it := replayed[i]
		if it.Seq != want || !it.Replayed {
			t.Fatalf("replayed[%d] = %+v, want seq %d", i, it, want)
		}
		if string(it.Payload) != fmt.Sprintf("apk-%d", want) || it.Key != fmt.Sprintf("app%d", want) {
			t.Fatalf("replayed[%d] payload/key corrupted: %+v", i, it)
		}
	}
	if q2.ReplayMaxSeq() != 4 {
		t.Fatalf("ReplayMaxSeq = %d, want 4", q2.ReplayMaxSeq())
	}
	// Replayed items are immediately claimable, in seq order, and fresh
	// seqs continue past everything the journal recorded.
	if l := claim(t, q2); l.Item().Seq != 2 {
		t.Fatalf("first claim after replay = %d, want 2", l.Item().Seq)
	} else if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
	if seq := enqueue(t, q2, Item{Payload: []byte("apk-5")}); seq != 5 {
		t.Fatalf("post-replay seq = %d, want 5", seq)
	}
	if st := q2.Stats(); st.Replayed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplayAboveCapacityRunsOnDebt(t *testing.T) {
	dir := t.TempDir()
	q, _ := mustOpen(t, Config{Capacity: 4, Dir: dir})
	for i := 0; i < 4; i++ {
		enqueue(t, q, Item{Payload: []byte{byte(i)}})
	}
	q.Close()

	// Reopen with half the capacity: the replayed backlog oversubscribes
	// the queue, and admissions stay blocked until claims repay the debt.
	q2, replayed := mustOpen(t, Config{Capacity: 2, Dir: dir})
	defer q2.Close()
	if len(replayed) != 4 {
		t.Fatalf("replayed %d, want 4", len(replayed))
	}
	if q2.TryAcquire() {
		t.Fatal("admission succeeded while replay oversubscribes capacity")
	}
	// Claims 1 and 2 repay the two-item debt; claims beyond that free
	// real slots.
	var leases []*Lease
	for i := 0; i < 4; i++ {
		leases = append(leases, claim(t, q2))
	}
	if !q2.TryAcquire() {
		t.Fatal("admission still blocked after backlog claimed")
	}
	q2.Release()
	for _, l := range leases {
		if err := l.Ack(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReleaseRepaysDebt: a slot given back unused repays debt the way a
// claimed item's slot does. A nack that finds no free token runs the queue
// on debt; a Release that then freed a token would admit past capacity.
func TestReleaseRepaysDebt(t *testing.T) {
	q, _ := mustOpen(t, Config{Capacity: 1})
	defer q.Close()
	enqueue(t, q, Item{Payload: []byte("apk")})
	l := claim(t, q)
	if !q.TryAcquire() {
		t.Fatal("the claim freed no slot")
	}
	if requeued, err := l.Nack(errors.New("lane lost")); err != nil || !requeued {
		t.Fatalf("nack: requeued %v, %v", requeued, err)
	}
	q.Release()
	if q.TryAcquire() {
		t.Fatalf("admitted with %d of 1 already queued", q.Stats().Depth)
	}
	l = claim(t, q)
	if !q.TryAcquire() {
		t.Fatal("the claim after the debt was repaid freed no slot")
	}
	q.Release()
	if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatesToGoodPrefix(t *testing.T) {
	dir := t.TempDir()
	q, _ := mustOpen(t, Config{Capacity: 8, Dir: dir})
	for i := 1; i <= 3; i++ {
		enqueue(t, q, Item{Key: fmt.Sprintf("k%d", i), Payload: []byte("payload")})
	}
	q.Close()

	path := filepath.Join(dir, logFile)
	for name, mutate := range map[string]func([]byte) []byte{
		// A record cut off mid-write (the classic torn tail).
		"truncated-record": func(b []byte) []byte { return b[:len(b)-3] },
		// Garbage appended after the last good record.
		"trailing-garbage": func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) },
	} {
		t.Run(name, func(t *testing.T) {
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, good, 0o644)
			if err := os.WriteFile(path, mutate(good), 0o644); err != nil {
				t.Fatal(err)
			}
			q2, replayed := mustOpen(t, Config{Capacity: 8, Dir: dir})
			defer q2.Close()
			want := 3
			if name == "truncated-record" {
				want = 2 // the torn third record is gone
			}
			if len(replayed) != want {
				t.Fatalf("replayed %d items, want %d", len(replayed), want)
			}
			// The dropped tail is visible to operators: one bad record (or
			// garbage run) counts as one skipped replay record.
			if got := q2.Stats().ReplaySkipped; got != 1 {
				t.Fatalf("ReplaySkipped = %d, want 1", got)
			}
			// The tail was truncated to the good prefix: appending works
			// and the next replay sees a consistent log.
			enqueue(t, q2, Item{Key: "after", Payload: []byte("fresh")})
			q2.Close()
			q3, replayed := mustOpen(t, Config{Capacity: 8, Dir: dir})
			defer q3.Close()
			if len(replayed) != want+1 {
				t.Fatalf("after repair: replayed %d, want %d", len(replayed), want+1)
			}
			if got := q3.Stats().ReplaySkipped; got != 0 {
				t.Fatalf("after repair: ReplaySkipped = %d, want 0", got)
			}
		})
	}
}

func TestJournalCompactionBoundsFileSize(t *testing.T) {
	dir := t.TempDir()
	q, _ := mustOpen(t, Config{Capacity: 2, Dir: dir})
	defer q.Close()
	payload := make([]byte, 128<<10)
	for i := 0; i < 24; i++ { // ~3 MiB of enqueue traffic, all settled
		enqueue(t, q, Item{Payload: payload})
		l := claim(t, q)
		if err := l.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 2<<20 {
		t.Fatalf("journal never compacted: %d bytes after 3 MiB of settled traffic", fi.Size())
	}
}

func TestShutdownDrainsBeforeErrDrained(t *testing.T) {
	q, _ := mustOpen(t, Config{Capacity: 4})
	defer q.Close()
	enqueue(t, q, Item{})
	q.Shutdown()
	if ok := q.TryAcquire(); ok {
		// Slot tokens may remain; Enqueue itself must refuse.
		if _, err := q.Enqueue(Item{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("enqueue after shutdown = %v, want ErrClosed", err)
		}
	}
	// The pending item is still claimable and must settle first.
	l := claim(t, q)
	done := make(chan error, 1)
	go func() {
		_, err := q.Claim(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("claim returned %v before the lease settled", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrDrained) {
		t.Fatalf("claim after drain = %v, want ErrDrained", err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 50
	)
	q, _ := mustOpen(t, Config{Capacity: 16})
	defer q.Close()

	var (
		mu   sync.Mutex
		seen = make(map[int64]int)
	)
	var consumed sync.WaitGroup
	for i := 0; i < consumers; i++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				l, err := q.Claim(context.Background())
				if err != nil {
					return
				}
				mu.Lock()
				seen[l.Item().Seq]++
				mu.Unlock()
				if err := l.Ack(); err != nil {
					t.Errorf("ack: %v", err)
				}
			}
		}()
	}

	var produced sync.WaitGroup
	for i := 0; i < producers; i++ {
		produced.Add(1)
		go func() {
			defer produced.Done()
			for j := 0; j < perProd; j++ {
				if err := q.Acquire(context.Background()); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if _, err := q.Enqueue(Item{}); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}()
	}
	produced.Wait()
	q.Shutdown()
	consumed.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != producers*perProd {
		t.Fatalf("claimed %d distinct seqs, want %d", len(seen), producers*perProd)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d claimed %d times", seq, n)
		}
	}
	if st := q.Stats(); st.Acked != producers*perProd {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClaimWhereUntil: ClaimWhere's until bounds the wait, not the claim.
// With nothing acceptable it returns ErrNothingClaimable once until has
// passed; a lease that expires before until is still reclaimed and handed
// out; an item that can be taken is taken even when until has passed; and
// a zero until is plain Claim, which waits for ctx.
func TestClaimWhereUntil(t *testing.T) {
	q, _ := mustOpen(t, Config{Capacity: 4, LeaseTTL: 100 * time.Millisecond})
	defer q.Close()
	seq := enqueue(t, q, Item{Key: "theirs"})
	mine := func(it Item) bool { return it.Key == "mine" }
	// A bound on every wait, so a ClaimWhere that ignores until fails here
	// instead of hanging the test.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	start := time.Now()
	if l, err := q.ClaimWhere(ctx, start.Add(80*time.Millisecond), mine); !errors.Is(err, ErrNothingClaimable) {
		t.Fatalf("nothing acceptable: %v, %v; want ErrNothingClaimable", l, err)
	}
	if waited := time.Since(start); waited < 80*time.Millisecond || waited > 2*time.Second {
		t.Fatalf("returned after %v, want at the 80ms until", waited)
	}
	if l, err := q.ClaimWhere(ctx, time.Now().Add(-time.Second), mine); !errors.Is(err, ErrNothingClaimable) {
		t.Fatalf("nothing acceptable, until passed: %v, %v", l, err)
	}
	l, err := q.ClaimWhere(ctx, time.Now().Add(-time.Second), nil)
	if err != nil || l.Item().Seq != seq {
		t.Fatalf("an acceptable item, until passed: %v, %v; want seq %d", l, err, seq)
	}

	// The lease expires 100ms in, well before until: the wait wakes for
	// the expiry, reclaims the item and hands it out again.
	start = time.Now()
	again, err := q.ClaimWhere(ctx, start.Add(5*time.Second), nil)
	if err != nil || again.Item().Seq != seq || again.Item().Attempts != 2 {
		t.Fatalf("after the lease expired: %v, %v; want seq %d attempt 2", again, err, seq)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("the reclaim waited %v for until instead of the lease expiry", waited)
	}
	if l.Valid() {
		t.Fatal("the expired lease is still valid")
	}
	if err := again.Ack(); err != nil {
		t.Fatal(err)
	}

	// A zero until never ends the wait by itself: only ctx does.
	short, cancelShort := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelShort()
	if l, err := q.ClaimWhere(short, time.Time{}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("zero until, empty queue: %v, %v; want ctx's error", l, err)
	}
	next := enqueue(t, q, Item{})
	if l, err := q.ClaimWhere(ctx, time.Time{}, nil); err != nil || l.Item().Seq != next {
		t.Fatalf("zero until: %v, %v; want seq %d", l, err, next)
	}
}

// TestAwaitDrainedClaimsNothing: the drain waiter leaves pending items
// where they are and returns once the last lease settles.
func TestAwaitDrainedClaimsNothing(t *testing.T) {
	q, _ := mustOpen(t, Config{Capacity: 4})
	defer q.Close()
	enqueue(t, q, Item{})
	q.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.AwaitDrained(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitDrained with an item pending = %v, want ctx's error", err)
	}
	if st := q.Stats(); st.Depth != 1 || st.Leased != 0 {
		t.Fatalf("after AwaitDrained: %d pending, %d leased; want 1, 0", st.Depth, st.Leased)
	}
	done := make(chan error, 1)
	go func() { done <- q.AwaitDrained(context.Background()) }()
	if err := claim(t, q).Ack(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("AwaitDrained after the last ack = %v, want nil", err)
	}
}

// TestLeaseEntryIsInline pins the lease table's value at the 128 bytes a Go
// map stores inline: one byte more and every claim allocates its entry.
func TestLeaseEntryIsInline(t *testing.T) {
	if n := unsafe.Sizeof(leaseState{}); n > 128 {
		t.Fatalf("leaseState is %d bytes; a map stores at most 128 inline", n)
	}
}

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// TestBoundedClaimWaitAllocBudget: a warm ClaimWhere whose until passes
// with nothing it can take allocates nothing. Its wait reuses a stopped
// timer from waitTimers; a time.NewTimer per call cost 3 allocations, and
// the coordinator's sliced long-poll makes one such call per claim.
func TestBoundedClaimWaitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops a quarter of what is put in a sync.Pool")
	}
	q, _ := mustOpen(t, Config{Capacity: 4, LeaseTTL: time.Minute})
	defer q.Close()
	enqueue(t, q, Item{Key: "theirs"})
	mine := func(it Item) bool { return it.Key == "mine" }
	ctx := context.Background()
	wait := func() {
		if l, err := q.ClaimWhere(ctx, time.Now().Add(time.Millisecond), mine); !errors.Is(err, ErrNothingClaimable) {
			t.Fatalf("nothing acceptable: %v, %v; want ErrNothingClaimable", l, err)
		}
	}
	wait()
	if n := testing.AllocsPerRun(100, wait); n != 0 {
		t.Errorf("a bounded wait that claims nothing allocates %.0f times, want 0", n)
	}
}
