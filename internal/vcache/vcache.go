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
//
// Storage is owned, not allocated per entry. A shard keeps its entries in
// a slot array made at capacity by its first store, linked into an exact
// LRU list by int32 indices and indexed by one map from key to slot; the
// key is the caller's string, kept as is. A singleflight call comes from
// the shard's spare list and goes back to it once its leader has finished
// and no follower is still reading it, and its done channel is made only
// when a follower joins. So once warm, a miss with its store, a hit and a
// Put allocate nothing.
package vcache

import (
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

// slot is one stored entry; epoch records the generation it was computed
// under. prev and next link the shard's LRU list by slot index (-1 ends
// it); a free slot's next links the free list instead.
type slot[V any] struct {
	key        string
	val        V
	epoch      uint64
	prev, next int32
}

// call is one in-flight leader computation followers block on. done is
// made by the first follower, so a flight nobody joins makes no channel;
// finishing closes it, or points it at closedDone when no follower made
// one. refs counts the leader until it finishes and each follower until
// it is done reading: the call goes back to its shard's spare list only
// when refs reaches zero.
type call[V any] struct {
	done  chan struct{}
	val   V
	err   error
	epoch uint64
	refs  int
	next  *call[V] // spare-list link
}

// closedDone is the done of every flight that finished before any
// follower joined it.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// shard is one lock's worth of the cache. Its entries live in slots, made
// at capacity by the first store and reused from then on: a store takes a
// free slot, a fresh one below capacity or the least recently used one, so
// it allocates nothing. Every field is guarded by mu.
type shard[V any] struct {
	mu         sync.Mutex
	capacity   int
	slots      []slot[V]
	index      map[string]int32 // key -> slot
	head, tail int32            // most and least recently used slot; -1 when empty
	free       int32            // first free slot below len(slots); -1 when none
	inflight   map[string]*call[V]
	spare      *call[V] // finished calls nobody reads, for the next leader
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
			index:    make(map[string]int32),
			head:     -1,
			tail:     -1,
			free:     -1,
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
	if i, ok := sh.index[key]; ok {
		s := &sh.slots[i]
		if s.epoch == epoch {
			sh.touch(i)
			v := s.val
			sh.mu.Unlock()
			c.hits.Add(1)
			return v, OutcomeHit, nil
		}
		// Stale generation: drop it and fall through to recompute.
		c.drop(sh, i)
		c.invalidations.Add(1)
	}
	if cl, ok := sh.inflight[key]; ok && cl.epoch == epoch {
		return c.follow(ctx, sh, cl)
	}
	cl := sh.spare
	if cl == nil {
		cl = new(call[V])
	} else {
		sh.spare = cl.next
	}
	*cl = call[V]{epoch: epoch, refs: 1}
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
		sh.mu.Lock()
		cl.err = fmt.Errorf("vcache: computation for %.12s panicked: %v", key, p)
		sh.finish(key, cl)
		sh.mu.Unlock()
		if p != nil { // nil: compute left through runtime.Goexit
			panic(p)
		}
	}()
	v, err := compute()
	finished = true

	sh.mu.Lock()
	cl.val, cl.err = v, err
	sh.finish(key, cl) // cl may be handed to the next leader from here on
	stored := false
	if err == nil && c.epoch.Load() == epoch {
		c.store(sh, key, v, epoch)
		stored = true
	}
	sh.mu.Unlock()
	if stored && c.onStore != nil {
		c.onStore(key, v, epoch)
	}
	c.misses.Add(1)
	return v, OutcomeMiss, err
}

// follow blocks on a leader's flight. It is called with sh.mu held and
// releases it; the follower holds a reference until it is done reading, so
// the call cannot be handed to another leader under the read.
func (c *Cache[V]) follow(ctx context.Context, sh *shard[V], cl *call[V]) (V, Outcome, error) {
	cl.refs++
	if cl.done == nil {
		cl.done = make(chan struct{})
	}
	done := cl.done
	sh.mu.Unlock()
	var v V
	var err error
	select {
	case <-done:
		v, err = cl.val, cl.err
	case <-ctx.Done():
		err = ctx.Err()
	}
	sh.mu.Lock()
	sh.unref(cl)
	sh.mu.Unlock()
	c.coalesced.Add(1)
	return v, OutcomeCoalesced, err
}

// finish ends a leader's flight under sh.mu: it clears the key's
// registration if it is still this call's — a BumpEpoch lets a same-key
// successor replace it — wakes the followers, and drops the leader's
// reference.
func (sh *shard[V]) finish(key string, cl *call[V]) {
	if sh.inflight[key] == cl {
		delete(sh.inflight, key)
	}
	if cl.done != nil {
		close(cl.done)
	} else {
		cl.done = closedDone
	}
	sh.unref(cl)
}

// unref drops one reference to cl under sh.mu. The last puts it on the
// spare list, holding no value; its done and err stay until a leader
// takes it.
func (sh *shard[V]) unref(cl *call[V]) {
	if cl.refs--; cl.refs > 0 {
		return
	}
	var zero V
	cl.val = zero
	cl.next = sh.spare
	sh.spare = cl
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
	if i, found := sh.index[key]; found {
		if s := &sh.slots[i]; s.epoch == epoch {
			sh.touch(i)
			v, ok = s.val, true
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
	if i, ok := sh.index[key]; ok {
		s := &sh.slots[i]
		if c.sizeOf != nil {
			c.addLive(int64(c.sizeOf(v)) - int64(c.sizeOf(s.val)))
		}
		s.val, s.epoch = v, epoch
		sh.touch(i)
		return
	}
	if len(sh.index) >= sh.capacity {
		c.drop(sh, sh.tail)
		c.evictions.Add(1)
	}
	i := sh.free
	if i >= 0 {
		sh.free = sh.slots[i].next
	} else {
		if sh.slots == nil {
			sh.slots = make([]slot[V], 0, sh.capacity)
		}
		i = int32(len(sh.slots))
		sh.slots = append(sh.slots, slot[V]{})
	}
	sh.slots[i] = slot[V]{key: key, val: v, epoch: epoch}
	sh.pushFront(i)
	sh.index[key] = i
	if c.sizeOf != nil {
		c.addLive(int64(c.sizeOf(v)))
	}
}

// drop removes slot i's entry under the shard lock, unbooks its live
// bytes and frees the slot.
func (c *Cache[V]) drop(sh *shard[V], i int32) {
	s := &sh.slots[i]
	if c.sizeOf != nil {
		c.addLive(-int64(c.sizeOf(s.val)))
	}
	sh.unlink(i)
	delete(sh.index, s.key)
	*s = slot[V]{next: sh.free}
	sh.free = i
}

// pushFront links slot i in as the most recently used.
func (sh *shard[V]) pushFront(i int32) {
	s := &sh.slots[i]
	s.prev, s.next = -1, sh.head
	if sh.head >= 0 {
		sh.slots[sh.head].prev = i
	} else {
		sh.tail = i
	}
	sh.head = i
}

// unlink takes slot i out of the LRU list.
func (sh *shard[V]) unlink(i int32) {
	s := &sh.slots[i]
	if s.prev >= 0 {
		sh.slots[s.prev].next = s.next
	} else {
		sh.head = s.next
	}
	if s.next >= 0 {
		sh.slots[s.next].prev = s.prev
	} else {
		sh.tail = s.prev
	}
}

// touch marks slot i the most recently used.
func (sh *shard[V]) touch(i int32) {
	if sh.head != i {
		sh.unlink(i)
		sh.pushFront(i)
	}
}

// Range calls fn for every current-generation entry, shard by shard and
// most recently used first, until fn returns false. Each shard is
// snapshotted under its lock and fn runs outside it, so a slow fn (the
// persist tier's compaction rewrite) never stalls serving lookups. Values
// are the stored values themselves, not copies — callers must treat them
// as immutable, the same contract hits already rely on.
func (c *Cache[V]) Range(fn func(key string, v V) bool) {
	epoch := c.epoch.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		snap := make([]slot[V], 0, len(sh.index))
		for j := sh.head; j >= 0; j = sh.slots[j].next {
			if s := sh.slots[j]; s.epoch == epoch {
				snap = append(snap, s)
			}
		}
		sh.mu.Unlock()
		for _, s := range snap {
			if !fn(s.key, s.val) {
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
		n := len(sh.index)
		if c.sizeOf != nil {
			var bytes int64
			for j := sh.head; j >= 0; j = sh.slots[j].next {
				bytes += int64(c.sizeOf(sh.slots[j].val))
			}
			c.addLive(-bytes)
		}
		clear(sh.slots)
		sh.slots = sh.slots[:0]
		clear(sh.index)
		sh.head, sh.tail, sh.free = -1, -1, -1
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
		n += len(sh.index)
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
