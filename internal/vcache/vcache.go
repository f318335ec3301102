// Package vcache is the verdict-memoization layer of the serving path: a
// sharded LRU keyed by APK content digest, with a singleflight group so N
// concurrent submissions of the same digest pay for exactly one
// computation, and a model-generation epoch so retraining invalidates
// every verdict produced by the previous model.
//
// The cache is generic over the stored value and knows nothing about
// verdicts; core.Checker decides what to key, what to store, and when to
// bump the epoch. Policy lives here:
//
//   - capacity: least-recently-used entries are evicted per shard once the
//     shard is full; sharding keeps lock hold times short under the
//     many-lane serving load.
//   - singleflight: the first Do for an absent key becomes the leader and
//     runs the computation; concurrent Dos for the same key block on the
//     leader's result instead of recomputing (OutcomeCoalesced). A blocked
//     follower honours its own context.
//   - epochs: BumpEpoch atomically advances the generation and drops every
//     entry. A computation that straddles a bump is returned to its caller
//     but never stored — its inputs (the model) are already stale.
//   - errors are never cached: a failed computation leaves no entry, so
//     transient failures (deadlines, cancellations) do not poison a digest.
package vcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"apichecker/internal/obs"
)

// Outcome classifies how one Do call was served.
type Outcome uint8

const (
	// OutcomeBypass: the cache was not consulted (disabled, or the key was
	// empty because the payload is not digestable).
	OutcomeBypass Outcome = iota
	// OutcomeMiss: no usable entry; this call ran the computation.
	OutcomeMiss
	// OutcomeHit: served from a stored entry, no computation.
	OutcomeHit
	// OutcomeCoalesced: blocked on a concurrent leader computing the same
	// key and shared its result.
	OutcomeCoalesced
)

func (o Outcome) String() string {
	names := [...]string{"bypass", "miss", "hit", "coalesced"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Served reports whether the call was answered without running its own
// computation (a hit or a coalesced follow).
func (o Outcome) Served() bool { return o == OutcomeHit || o == OutcomeCoalesced }

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// entry is one stored value; epoch records the generation it was computed
// under.
type entry[V any] struct {
	key   string
	val   V
	epoch uint64
}

// call is one in-flight leader computation followers block on.
type call[V any] struct {
	done  chan struct{}
	val   V
	err   error
	epoch uint64
}

type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element holding *entry[V]
	inflight map[string]*call[V]
}

// Cache is a sharded, epoch-aware LRU with singleflight computation.
// The zero value is not usable; construct with New.
//
// The cache books its accounting as obs counters (vcache.hits,
// vcache.misses, vcache.coalesced, vcache.evictions,
// vcache.invalidations): Stats is a thin view over those handles, and a
// cache built with NewObserved shares them with the rest of the vetting
// system's observability spine.
type Cache[V any] struct {
	shards []shard[V]
	epoch  atomic.Uint64

	hits, misses, coalesced  *obs.Counter
	evictions, invalidations *obs.Counter

	// sizeOf measures one stored value (SetSizeOf); when set, live bytes
	// across all stored entries are tracked in live and mirrored on the
	// vcache.live_bytes gauge — the bounded-heap evidence for a cache
	// holding millions of entries.
	sizeOf    func(V) int
	live      atomic.Int64
	liveGauge *obs.Gauge

	// onStore (OnStore) observes every successful store outside the shard
	// lock — the persistence tier's write-through tap.
	onStore func(key string, v V, epoch uint64)
}

// New builds a cache bounded to roughly capacity entries (the bound is
// enforced per shard). capacity <= 0 selects DefaultCapacity.
func New[V any](capacity int) *Cache[V] {
	return NewObserved[V](capacity, nil)
}

// NewObserved is New with the cache's counters registered on a shared
// obs collector (nil keeps them private). The counters are authoritative
// — Stats reads them back — so observers and the legacy snapshot can
// never disagree.
func NewObserved[V any](capacity int, col *obs.Collector) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if col == nil {
		col = obs.NewCollector()
	}
	n := shardCount(capacity)
	c := &Cache[V]{
		shards:        make([]shard[V], n),
		liveGauge:     col.Gauge("vcache.live_bytes"),
		hits:          col.Counter("vcache.hits"),
		misses:        col.Counter("vcache.misses"),
		coalesced:     col.Counter("vcache.coalesced"),
		evictions:     col.Counter("vcache.evictions"),
		invalidations: col.Counter("vcache.invalidations"),
	}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i] = shard[V]{
			capacity: per,
			lru:      list.New(),
			items:    make(map[string]*list.Element),
			inflight: make(map[string]*call[V]),
		}
	}
	return c
}

// SetSizeOf installs the value-size measure enabling live-byte accounting
// (Stats.LiveBytes and the vcache.live_bytes gauge). Install before the
// cache sees traffic: entries stored earlier are not retroactively
// measured.
func (c *Cache[V]) SetSizeOf(fn func(V) int) { c.sizeOf = fn }

// OnStore installs a hook observing every successful store (leader
// completion, Put) with the epoch the value was stored under. It
// runs outside the shard lock, so a slow hook (a file append) stalls only
// its own caller. Install before the cache sees traffic.
func (c *Cache[V]) OnStore(fn func(key string, v V, epoch uint64)) { c.onStore = fn }

// addLive books a live-byte delta and mirrors the total on the gauge.
func (c *Cache[V]) addLive(delta int64) {
	if c.sizeOf == nil || delta == 0 {
		return
	}
	c.liveGauge.Set(c.live.Add(delta))
}

// shardCount keeps small caches in one shard (exact LRU) and spreads
// large ones over up to 16 locks.
func shardCount(capacity int) int {
	n := 1
	for n < 16 && capacity >= 128*n*2 {
		n *= 2
	}
	return n
}

func (c *Cache[V]) shard(key string) *shard[V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[fnv64(key)%uint64(len(c.shards))]
}

// fnv64 is FNV-1a over the key (digests are uniformly distributed hex, so
// any cheap hash shards evenly).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Do returns the cached value for key, or runs compute exactly once per
// concurrent wave of identical keys and caches its result. An empty key
// bypasses the cache entirely. Followers blocked on a leader honour ctx;
// the leader's computation runs under whatever context compute captured.
// Errors are returned but never cached. A compute that panics finishes its
// flight first — followers get an error, the key is free again — and then
// panics on into Do's caller.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, Outcome, error) {
	if key == "" {
		v, err := compute()
		return v, OutcomeBypass, err
	}
	sh := c.shard(key)
	epoch := c.epoch.Load()

	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*entry[V])
		if e.epoch == epoch {
			sh.lru.MoveToFront(el)
			v := e.val
			sh.mu.Unlock()
			c.hits.Add(1)
			return v, OutcomeHit, nil
		}
		// Stale generation: drop it and fall through to recompute.
		sh.lru.Remove(el)
		delete(sh.items, key)
		if c.sizeOf != nil {
			c.addLive(-int64(c.sizeOf(e.val)))
		}
		c.invalidations.Add(1)
	}
	if cl, ok := sh.inflight[key]; ok && cl.epoch == epoch {
		sh.mu.Unlock()
		var zero V
		select {
		case <-cl.done:
			c.coalesced.Add(1)
			return cl.val, OutcomeCoalesced, cl.err
		case <-ctx.Done():
			c.coalesced.Add(1)
			return zero, OutcomeCoalesced, ctx.Err()
		}
	}
	cl := &call[V]{done: make(chan struct{}), epoch: epoch}
	sh.inflight[key] = cl
	sh.mu.Unlock()

	// A compute that panics must still finish its flight: otherwise the
	// registration outlives it, and every later Do of this key — the
	// re-issued attempt after a worker recovered the panic — blocks on a
	// leader that will never close done. Followers get the panic as an
	// error; the panic itself goes on to the leader's caller.
	finished := false
	defer func() {
		if finished {
			return
		}
		p := recover()
		cl.err = fmt.Errorf("vcache: computation for %.12s panicked: %v", key, p)
		close(cl.done)
		sh.mu.Lock()
		if sh.inflight[key] == cl {
			delete(sh.inflight, key)
		}
		sh.mu.Unlock()
		if p != nil { // nil: compute left through runtime.Goexit
			panic(p)
		}
	}()
	cl.val, cl.err = compute()
	finished = true
	close(cl.done)

	sh.mu.Lock()
	// A BumpEpoch or a same-key successor (after an epoch change) may have
	// replaced the registration; only clear our own.
	if sh.inflight[key] == cl {
		delete(sh.inflight, key)
	}
	stored := false
	if cl.err == nil && c.epoch.Load() == epoch {
		c.store(sh, key, cl.val, epoch)
		stored = true
	}
	sh.mu.Unlock()
	if stored && c.onStore != nil {
		c.onStore(key, cl.val, epoch)
	}
	c.misses.Add(1)
	return cl.val, OutcomeMiss, cl.err
}

// Hit looks the key up for a caller that answers from the entry it finds:
// it counts a hit when it finds one and nothing when it does not, so a
// probe that misses and goes on to Do books exactly what Do alone would
// have.
func (c *Cache[V]) Hit(key string) (v V, ok bool) {
	if key == "" {
		return v, false
	}
	sh := c.shard(key)
	epoch := c.epoch.Load()
	sh.mu.Lock()
	if el, found := sh.items[key]; found {
		if e := el.Value.(*entry[V]); e.epoch == epoch {
			sh.lru.MoveToFront(el)
			v, ok = e.val, true
		}
	}
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

// Put stores a value computed outside Do under the current epoch (the
// persist tier's warm-start replay).
func (c *Cache[V]) Put(key string, v V) {
	if key == "" {
		return
	}
	sh := c.shard(key)
	epoch := c.epoch.Load()
	sh.mu.Lock()
	c.store(sh, key, v, epoch)
	sh.mu.Unlock()
	if c.onStore != nil {
		c.onStore(key, v, epoch)
	}
}

// store upserts under the shard lock, evicting the LRU entry if full.
func (c *Cache[V]) store(sh *shard[V], key string, v V, epoch uint64) {
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*entry[V])
		if c.sizeOf != nil {
			c.addLive(int64(c.sizeOf(v)) - int64(c.sizeOf(e.val)))
		}
		e.val, e.epoch = v, epoch
		sh.lru.MoveToFront(el)
		return
	}
	if sh.lru.Len() >= sh.capacity {
		back := sh.lru.Back()
		if back != nil {
			dropped := back.Value.(*entry[V])
			sh.lru.Remove(back)
			delete(sh.items, dropped.key)
			if c.sizeOf != nil {
				c.addLive(-int64(c.sizeOf(dropped.val)))
			}
			c.evictions.Add(1)
		}
	}
	sh.items[key] = sh.lru.PushFront(&entry[V]{key: key, val: v, epoch: epoch})
	if c.sizeOf != nil {
		c.addLive(int64(c.sizeOf(v)))
	}
}

// Range calls fn for every current-generation entry, shard by shard, until
// fn returns false. Each shard is snapshotted under its lock and fn runs
// outside it, so a slow fn (the persist tier's compaction rewrite) never
// stalls serving lookups. Values are the stored values themselves, not
// copies — callers must treat them as immutable, the same contract hits
// already rely on.
func (c *Cache[V]) Range(fn func(key string, v V) bool) {
	epoch := c.epoch.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		snap := make([]entry[V], 0, sh.lru.Len())
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*entry[V]); e.epoch == epoch {
				snap = append(snap, *e)
			}
		}
		sh.mu.Unlock()
		for _, e := range snap {
			if !fn(e.key, e.val) {
				return
			}
		}
	}
}

// BumpEpoch advances the model generation and drops every stored entry.
// In-flight leader computations finish but are not stored, and new Dos
// for the same keys recompute rather than coalescing onto them.
func (c *Cache[V]) BumpEpoch() {
	c.epoch.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := sh.lru.Len()
		if c.sizeOf != nil {
			var bytes int64
			for el := sh.lru.Front(); el != nil; el = el.Next() {
				bytes += int64(c.sizeOf(el.Value.(*entry[V]).val))
			}
			c.addLive(-bytes)
		}
		sh.lru.Init()
		clear(sh.items)
		sh.mu.Unlock()
		c.invalidations.Add(uint64(n))
	}
}

// Epoch returns the current model generation.
func (c *Cache[V]) Epoch() uint64 { return c.epoch.Load() }

// Len returns the stored entry count across shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64 // Dos and Hits served from a stored entry
	Misses    uint64 // Dos that ran the computation
	Coalesced uint64 // Dos that blocked on a concurrent leader

	Evictions     uint64 // entries dropped by the LRU bound
	Invalidations uint64 // entries dropped by epoch bumps

	Entries  int    // stored entries right now
	Capacity int    // configured entry bound
	Epoch    uint64 // current model generation

	// LiveBytes is the summed SizeOf of every stored entry — 0 unless the
	// owner installed a size measure (core measures flat entry length).
	LiveBytes int64
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() Stats {
	cap := 0
	for i := range c.shards {
		cap += c.shards[i].capacity
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
		Capacity:      cap,
		Epoch:         c.epoch.Load(),
		LiveBytes:     c.live.Load(),
	}
}
