package vcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// lru is what the reference test drives: the cache and refCache both
// implement it.
type lru interface {
	Do(ctx context.Context, key string, compute func() (int, error)) (int, Outcome, error)
	Hit(key string) (int, bool)
	Put(key string, v int)
	BumpEpoch()
	Stats() Stats
	Range(fn func(key string, v int) bool)
}

// refCache is the reference the slot store is held to: a container/list
// LRU per shard, with the cache's policy written out plainly and run on
// one goroutine. A flight is a key registered in inflight; a Do that
// finds one must bring a context that is already done.
type refCache struct {
	shards   []refShard
	per      int
	epoch    uint64
	sizeOf   func(int) int
	inflight map[string]int // key -> flight id
	flights  int
	st       Stats
}

type refShard struct {
	lru   *list.List               // front = most recently used
	items map[string]*list.Element // key -> element holding *refEntry
}

type refEntry struct {
	key   string
	val   int
	epoch uint64
}

func newRefCache(capacity int, sizeOf func(int) int) *refCache {
	n := shardCount(capacity)
	r := &refCache{shards: make([]refShard, n), per: (capacity + n - 1) / n, sizeOf: sizeOf, inflight: map[string]int{}}
	for i := range r.shards {
		r.shards[i] = refShard{lru: list.New(), items: map[string]*list.Element{}}
	}
	return r
}

func (r *refCache) shard(key string) *refShard {
	return &r.shards[fnv64(key)%uint64(len(r.shards))]
}

func (r *refCache) Do(ctx context.Context, key string, compute func() (int, error)) (int, Outcome, error) {
	sh, epoch := r.shard(key), r.epoch
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*refEntry)
		if e.epoch == epoch {
			sh.lru.MoveToFront(el)
			r.st.Hits++
			return e.val, OutcomeHit, nil
		}
		sh.lru.Remove(el)
		delete(sh.items, key)
		r.st.LiveBytes -= int64(r.sizeOf(e.val))
		r.st.Invalidations++
	}
	if id, ok := r.inflight[key]; ok && id>>32 == int(epoch) {
		if ctx.Err() == nil {
			panic("refCache: a follower would block")
		}
		r.st.Coalesced++
		return 0, OutcomeCoalesced, ctx.Err()
	}
	r.flights++
	id := int(epoch)<<32 | r.flights
	r.inflight[key] = id
	defer func() {
		if r.inflight[key] == id {
			delete(r.inflight, key)
		}
	}()
	v, err := compute() // a panic counts nothing
	if err == nil && r.epoch == epoch {
		r.store(key, v)
	}
	r.st.Misses++
	return v, OutcomeMiss, err
}

func (r *refCache) Hit(key string) (int, bool) {
	sh := r.shard(key)
	if el, ok := sh.items[key]; ok {
		if e := el.Value.(*refEntry); e.epoch == r.epoch {
			sh.lru.MoveToFront(el)
			r.st.Hits++
			return e.val, true
		}
	}
	return 0, false
}

func (r *refCache) Put(key string, v int) { r.store(key, v) }

func (r *refCache) store(key string, v int) {
	sh := r.shard(key)
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*refEntry)
		r.st.LiveBytes += int64(r.sizeOf(v) - r.sizeOf(e.val))
		e.val, e.epoch = v, r.epoch
		sh.lru.MoveToFront(el)
		return
	}
	if sh.lru.Len() >= r.per {
		back := sh.lru.Back()
		e := back.Value.(*refEntry)
		sh.lru.Remove(back)
		delete(sh.items, e.key)
		r.st.LiveBytes -= int64(r.sizeOf(e.val))
		r.st.Evictions++
	}
	sh.items[key] = sh.lru.PushFront(&refEntry{key: key, val: v, epoch: r.epoch})
	r.st.LiveBytes += int64(r.sizeOf(v))
}

func (r *refCache) BumpEpoch() {
	r.epoch++
	for i := range r.shards {
		sh := &r.shards[i]
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			r.st.LiveBytes -= int64(r.sizeOf(el.Value.(*refEntry).val))
		}
		r.st.Invalidations += uint64(sh.lru.Len())
		sh.lru.Init()
		clear(sh.items)
	}
}

func (r *refCache) Stats() Stats {
	st := r.st
	st.Epoch, st.Capacity, st.Entries = r.epoch, r.per*len(r.shards), 0
	for i := range r.shards {
		st.Entries += r.shards[i].lru.Len()
	}
	return st
}

func (r *refCache) Range(fn func(key string, v int) bool) {
	for i := range r.shards {
		for el := r.shards[i].lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*refEntry); e.epoch == r.epoch && !fn(e.key, e.val) {
				return
			}
		}
	}
}

// observed is what one call handed back, with its error as text.
type observed struct {
	V   int
	Out Outcome
	OK  bool
	Err string
}

func observe(v int, out Outcome, err error) observed {
	o := observed{V: v, Out: out}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

var errRefBoom = errors.New("boom")

// refOps are the operations TestCacheMatchesReferenceLRU draws from, each
// written once against lru. Every call's outcome is appended to log.
var refOps = []struct {
	name   string
	weight int
	run    func(s lru, key string, v int, log *[]observed)
}{
	{"do", 30, func(s lru, key string, v int, log *[]observed) {
		*log = append(*log, observe(s.Do(context.Background(), key, func() (int, error) { return v, nil })))
	}},
	{"do-error", 6, func(s lru, key string, v int, log *[]observed) {
		*log = append(*log, observe(s.Do(context.Background(), key, func() (int, error) { return 0, errRefBoom })))
	}},
	{"hit", 30, func(s lru, key string, v int, log *[]observed) {
		got, ok := s.Hit(key)
		*log = append(*log, observed{V: got, OK: ok})
	}},
	{"put", 15, func(s lru, key string, v int, log *[]observed) { s.Put(key, v) }},
	{"bump", 1, func(s lru, key string, v int, log *[]observed) { s.BumpEpoch() }},
	{"do-follower-gives-up", 6, func(s lru, key string, v int, log *[]observed) {
		gone, cancel := context.WithCancel(context.Background())
		cancel()
		*log = append(*log, observe(s.Do(context.Background(), key, func() (int, error) {
			*log = append(*log, observe(s.Do(gone, key, func() (int, error) { return -1, nil })))
			return v, nil
		})))
	}},
	{"do-bump-mid-flight", 2, func(s lru, key string, v int, log *[]observed) {
		*log = append(*log, observe(s.Do(context.Background(), key, func() (int, error) {
			s.BumpEpoch()
			return v, nil
		})))
	}},
	{"do-bump-then-successor", 2, func(s lru, key string, v int, log *[]observed) {
		*log = append(*log, observe(s.Do(context.Background(), key, func() (int, error) {
			s.BumpEpoch()
			*log = append(*log, observe(s.Do(context.Background(), key, func() (int, error) { return v + 1, nil })))
			return v, nil
		})))
	}},
	{"do-panics", 3, func(s lru, key string, v int, log *[]observed) {
		defer func() {
			if p := recover(); p != nil {
				*log = append(*log, observed{Err: fmt.Sprint("panic: ", p)})
			}
		}()
		*log = append(*log, observe(s.Do(context.Background(), key, func() (int, error) { panic("poisoned") })))
	}},
}

// TestCacheMatchesReferenceLRU runs seeded random operations against the
// cache and against refCache, and after every one compares what each
// call returned, the counters, live bytes and Range's keys in order —
// exact LRU order, since compaction replays it.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	total := 0
	for _, op := range refOps {
		total += op.weight
	}
	for _, tc := range []struct {
		name                string
		capacity, keys, ops int
		wantShards          int
		bumpOdds            int // 1 in bumpOdds drawn bumps is run, so a large cache fills between them
	}{
		{"1-shard", 8, 24, 20000, 1, 1},
		{"16-shard", 2048, 3000, 8000, 16, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sizeOf := func(v int) int { return v%13 + 1 }
			c := New[int](tc.capacity)
			c.SetSizeOf(sizeOf)
			ref := newRefCache(tc.capacity, sizeOf)
			if len(c.shards) != tc.wantShards {
				t.Fatalf("capacity %d spread over %d shards, want %d", tc.capacity, len(c.shards), tc.wantShards)
			}
			keys := make([]string, tc.keys)
			for i := range keys {
				keys[i] = fmt.Sprintf("%064x", i*2654435761)
			}
			rng := rand.New(rand.NewPCG(7, uint64(tc.capacity)))
			counts := map[string]int{}
			var gk, wk []string
			for n := 0; n < tc.ops; n++ {
				pick := rng.IntN(total)
				i := 0
				for pick >= refOps[i].weight {
					pick -= refOps[i].weight
					i++
				}
				op := refOps[i]
				if strings.Contains(op.name, "bump") && rng.IntN(tc.bumpOdds) != 0 {
					op = refOps[0]
				}
				key, v := keys[rng.IntN(len(keys))], 1+rng.IntN(1000)
				var got, want []observed
				op.run(c, key, v, &got)
				op.run(ref, key, v, &want)
				counts[op.name]++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d %s(%.8s, %d): cache saw %+v, reference %+v", n, op.name, key, v, got, want)
				}
				if gs, ws := c.Stats(), ref.Stats(); gs != ws {
					t.Fatalf("op %d %s(%.8s): stats\n  cache     %+v\n  reference %+v", n, op.name, key, gs, ws)
				}
				gk, wk = rangeKeys(c, gk[:0]), rangeKeys(ref, wk[:0])
				if !slices.Equal(gk, wk) {
					t.Fatalf("op %d %s(%.8s): Range order\n  cache     %.8q\n  reference %.8q", n, op.name, key, gk, wk)
				}
			}
			if ref.st.Evictions == 0 || ref.st.Invalidations == 0 || ref.st.Coalesced == 0 {
				t.Fatalf("the run never evicted, invalidated or coalesced: %+v", ref.Stats())
			}
			t.Logf("%v; %+v", counts, ref.Stats())
		})
	}
}

func rangeKeys(s lru, keys []string) []string {
	s.Range(func(key string, _ int) bool {
		keys = append(keys, key)
		return true
	})
	return keys
}

// TestStoreAllocatesNothing: once a cache is warm — its slot arrays made,
// its index maps grown — a miss through Do with its store (and the
// eviction it forces), a hit and a Put allocate nothing, nor does the
// persist tier's append of what was stored.
func TestStoreAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	c := New[int](512)
	c.SetSizeOf(func(int) int { return 8 })
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	ctx := context.Background()
	compute := func() (int, error) { return 1, nil }
	i := 0
	miss := func() {
		if _, out, err := c.Do(ctx, keys[i%len(keys)], compute); out != OutcomeMiss || err != nil {
			t.Fatalf("Do = (%v, %v), want a miss", out, err)
		}
		i++
	}
	for range 2 * len(keys) {
		miss()
	}
	if allocs := testing.AllocsPerRun(2000, miss); allocs != 0 {
		t.Errorf("a warm miss with its store allocates %.2f times, want 0", allocs)
	}
	hot := keys[(i-1)%len(keys)]
	if allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := c.Hit(hot); !ok {
			t.Fatal("the last stored key is gone")
		}
	}); allocs != 0 {
		t.Errorf("a hit allocates %.2f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(2000, func() {
		c.Put(keys[i%len(keys)], 2)
		i++
	}); allocs != 0 {
		t.Errorf("a Put allocates %.2f times, want 0", allocs)
	}

	p, _, _, err := OpenPersist(filepath.Join(t.TempDir(), "p"), "model:x", c.Epoch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c.OnStore(func(key string, v int, epoch uint64) {
		if err := p.AppendCurrent(key, []byte("verdict entry"), epoch); err != nil {
			t.Error(err)
		}
	})
	miss()
	if allocs := testing.AllocsPerRun(2000, miss); allocs != 0 {
		t.Errorf("a warm miss with its store and persisted append allocates %.2f times, want 0", allocs)
	}
}

// TestFlightReuseUnderChurn drives many goroutines over a few keys while
// flights are recycled as fast as they finish: followers give up on their
// contexts, leaders panic or fail, and BumpEpoch runs throughout. A flight
// handed to a new leader while a follower still reads it shows as a value
// for the wrong key (or a race under -race).
func TestFlightReuseUnderChurn(t *testing.T) {
	c := New[int](2)
	keys := []string{"a", "b", "c", "d"}
	value := func(key string) int { return int(key[0]) }
	errFail := errors.New("compute failed")

	stop := make(chan struct{})
	bumped := make(chan struct{})
	go func() {
		defer close(bumped)
		for {
			select {
			case <-stop:
				return
			default:
				c.BumpEpoch()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 11))
			for range 400 {
				key := keys[rng.IntN(len(keys))]
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch rng.IntN(4) {
				case 0:
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case 1:
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.IntN(100))*time.Microsecond)
				}
				mode := rng.IntN(6)
				v, out, err, panicked := doRecovering(c, ctx, key, func() (int, error) {
					for range 3 {
						runtime.Gosched()
					}
					switch mode {
					case 0:
						panic("poisoned")
					case 1:
						return 0, errFail
					}
					return value(key), nil
				})
				cancel()
				switch {
				case panicked != nil:
					if panicked != "poisoned" || mode != 0 {
						t.Errorf("%s: recovered %v from a mode-%d compute", key, panicked, mode)
					}
				case err == nil:
					if v != value(key) {
						t.Errorf("%s: %v returned %d, want %d", key, out, v, value(key))
					}
				case errors.Is(err, errFail), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				case out == OutcomeCoalesced && strings.Contains(err.Error(), "panicked: poisoned"):
				default:
					t.Errorf("%s: %v returned error %v", key, out, err)
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("the churn did not finish in 30s: a recycled flight stranded a caller")
	}
	close(stop)
	<-bumped

	// Every flight finished and nobody reads one: each key is free.
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := len(sh.inflight)
		sh.mu.Unlock()
		if n != 0 {
			t.Fatalf("%d flights still registered after every caller returned", n)
		}
	}
	for _, key := range keys {
		if v, out, err := c.Do(context.Background(), key, func() (int, error) { return value(key), nil }); err != nil || v != value(key) || out == OutcomeCoalesced {
			t.Fatalf("Do(%s) after the churn = (%d, %v, %v)", key, v, out, err)
		}
	}
}

// doRecovering is Do with a panic from its compute recovered and handed
// back.
func doRecovering(c *Cache[int], ctx context.Context, key string, compute func() (int, error)) (v int, out Outcome, err error, panicked any) {
	defer func() { panicked = recover() }()
	v, out, err = c.Do(ctx, key, compute)
	return v, out, err, nil
}
