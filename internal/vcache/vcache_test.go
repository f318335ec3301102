package vcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDoMissThenHit(t *testing.T) {
	c := New[int](8)
	computes := 0
	get := func() (int, error) { computes++; return 42, nil }

	v, out, err := c.Do(context.Background(), "k", get)
	if err != nil || v != 42 || out != OutcomeMiss {
		t.Fatalf("first Do = (%d, %v, %v), want (42, miss, nil)", v, out, err)
	}
	v, out, err = c.Do(context.Background(), "k", get)
	if err != nil || v != 42 || out != OutcomeHit {
		t.Fatalf("second Do = (%d, %v, %v), want (42, hit, nil)", v, out, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyKeyBypasses(t *testing.T) {
	c := New[int](8)
	computes := 0
	for i := 0; i < 2; i++ {
		v, out, err := c.Do(context.Background(), "", func() (int, error) { computes++; return 7, nil })
		if err != nil || v != 7 || out != OutcomeBypass {
			t.Fatalf("Do = (%d, %v, %v), want (7, bypass, nil)", v, out, err)
		}
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (no caching on empty keys)", computes)
	}
	if st := c.Stats(); st.Hits+st.Misses+st.Coalesced != 0 || st.Entries != 0 {
		t.Fatalf("bypass touched the cache: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](3) // small capacity -> single shard, exact LRU
	if len(c.shards) != 1 {
		t.Fatalf("capacity 3 spread over %d shards; eviction test needs 1", len(c.shards))
	}
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	// Touch k0 so k1 becomes least recently used.
	if _, ok := c.Hit("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k3", 3)
	if _, ok := c.Hit("k1"); ok {
		t.Fatal("k1 survived eviction; LRU order not respected")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Hit(k); !ok {
			t.Fatalf("%s evicted, want retained", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction and 3 entries", st)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New[int](8)
	const followers = 15
	var computes int
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, followers+1)
	outcomes := make([]Outcome, followers+1)

	// Leader blocks inside compute until every follower is queued.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, out, err := c.Do(context.Background(), "k", func() (int, error) {
			computes++ // only the leader runs; no lock needed
			close(started)
			<-release
			return 99, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0], outcomes[0] = v, out
	}()
	<-started
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", func() (int, error) {
				t.Error("follower ran the computation")
				return 0, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	// Followers register against the in-flight call asynchronously; give
	// them space to block, then release the leader. Coalesced vs hit split
	// is timing-dependent, but compute count and values are not.
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("result[%d] = %d, want 99", i, v)
		}
	}
	if outcomes[0] != OutcomeMiss {
		t.Fatalf("leader outcome = %v, want miss", outcomes[0])
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != followers {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, followers)
	}
}

func TestFollowerHonoursContext(t *testing.T) {
	c := New[int](8)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.Do(ctx, "k", func() (int, error) { return 2, nil })
	close(release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != OutcomeCoalesced {
		t.Fatalf("outcome = %v, want coalesced", out)
	}
}

// TestPanickingLeaderFinishesFlight: a compute that panics releases its
// followers with an error and frees the key before the panic reaches its
// own caller, so the next Do of that key — the re-issued attempt, once a
// worker has recovered the panic — computes again instead of waiting on a
// leader that will never finish.
func TestPanickingLeaderFinishesFlight(t *testing.T) {
	c := New[int](8)
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("poisoned archive")
		})
	}()
	<-started
	// What a follower parked on this leader holds: the in-flight call.
	sh := c.shard("k")
	sh.mu.Lock()
	cl := sh.inflight["k"]
	sh.mu.Unlock()
	close(release)
	if p := <-leader; p != "poisoned archive" {
		t.Fatalf("the leader's caller recovered %v, want the compute's own panic value", p)
	}
	select {
	case <-cl.done:
		if cl.err == nil || !strings.Contains(cl.err.Error(), "panicked: poisoned archive") {
			t.Fatalf("a follower would get error %v, want one naming the panic", cl.err)
		}
	default:
		t.Fatal("the panicked leader left its followers parked")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, out, err := c.Do(context.Background(), "k", func() (int, error) { return 3, nil })
		if v != 3 || out != OutcomeMiss || err != nil {
			t.Errorf("Do after the panic = (%d, %v, %v), want (3, miss, nil)", v, out, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do after a panicked leader blocked: its flight was never finished")
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[int](8)
	boom := errors.New("boom")
	computes := 0
	_, out, err := c.Do(context.Background(), "k", func() (int, error) { computes++; return 0, boom })
	if !errors.Is(err, boom) || out != OutcomeMiss {
		t.Fatalf("Do = (%v, %v), want (miss, boom)", out, err)
	}
	v, out, err := c.Do(context.Background(), "k", func() (int, error) { computes++; return 5, nil })
	if err != nil || v != 5 || out != OutcomeMiss {
		t.Fatalf("retry Do = (%d, %v, %v), want (5, miss, nil)", v, out, err)
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (errors must not be cached)", computes)
	}
}

func TestBumpEpochInvalidates(t *testing.T) {
	c := New[int](8)
	computes := 0
	get := func() (int, error) { computes++; return computes, nil }

	if _, out, _ := c.Do(context.Background(), "k", get); out != OutcomeMiss {
		t.Fatalf("outcome = %v, want miss", out)
	}
	c.BumpEpoch()
	if _, ok := c.Hit("k"); ok {
		t.Fatal("entry survived BumpEpoch")
	}
	v, out, _ := c.Do(context.Background(), "k", get)
	if out != OutcomeMiss || v != 2 {
		t.Fatalf("post-bump Do = (%d, %v), want (2, miss)", v, out)
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Epoch != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation at epoch 1", st)
	}
	// The fresh entry is cached under the new epoch.
	if _, out, _ := c.Do(context.Background(), "k", get); out != OutcomeHit {
		t.Fatalf("outcome = %v, want hit under new epoch", out)
	}
}

// TestHitCountsOnlyWhatItFinds: a probe that finds nothing — absent, or
// stored under an epoch since bumped — books nothing, so the Do that
// follows it books the one miss Do alone would have.
func TestHitCountsOnlyWhatItFinds(t *testing.T) {
	c := New[int](8)
	if _, ok := c.Hit("k"); ok {
		t.Fatal("Hit found an absent key")
	}
	if _, out, _ := c.Do(context.Background(), "k", func() (int, error) { return 7, nil }); out != OutcomeMiss {
		t.Fatalf("outcome = %v, want miss", out)
	}
	if v, ok := c.Hit("k"); !ok || v != 7 {
		t.Fatalf("Hit = (%d, %v), want (7, true)", v, ok)
	}
	c.BumpEpoch()
	if _, ok := c.Hit("k"); ok {
		t.Fatal("Hit served an entry from before BumpEpoch")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1 and 1", st.Hits, st.Misses)
	}
}

func TestBumpEpochDuringFlightSkipsStore(t *testing.T) {
	c := New[int](8)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan Outcome)
	go func() {
		_, out, _ := c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		done <- out
	}()
	<-started
	c.BumpEpoch() // the in-flight result is stale before it lands
	close(release)
	if out := <-done; out != OutcomeMiss {
		t.Fatalf("leader outcome = %v, want miss", out)
	}
	if _, ok := c.Hit("k"); ok {
		t.Fatal("stale-epoch result was stored")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestShardCountScales(t *testing.T) {
	for _, tc := range []struct{ capacity, want int }{
		{1, 1}, {64, 1}, {255, 1}, {256, 2}, {1024, 8}, {4096, 16}, {1 << 20, 16},
	} {
		if got := shardCount(tc.capacity); got != tc.want {
			t.Errorf("shardCount(%d) = %d, want %d", tc.capacity, got, tc.want)
		}
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int](512)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				v, _, err := c.Do(context.Background(), key, func() (int, error) { return i % 32, nil })
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if v != i%32 {
					t.Errorf("Do(%s) = %d, want %d", key, v, i%32)
					return
				}
				if w == 0 && i%50 == 0 {
					c.BumpEpoch()
				}
			}
		}(w)
	}
	wg.Wait()
}
