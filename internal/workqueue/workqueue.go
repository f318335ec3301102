// Package workqueue is the durable intake tier of the vetting cluster
// protocol: a bounded, seq-ordered submission queue whose work is handed
// out under leases — the coordinator half of the taskcluster-worker shape
// ROADMAP targets, rehearsed in-process so a later network API can slot in
// without changing worker semantics.
//
// The contract:
//
//   - Enqueue assigns a vet sequence number (or honors a pinned one) and,
//     when the queue has a journal directory, appends the submission to
//     the journal before admitting it — a kill-and-restart replays every
//     enqueued-but-unacked submission.
//   - Claim hands the lowest-seq pending item to a worker under a lease.
//     With a LeaseTTL configured, a lease that is neither acked, nacked,
//     nor heartbeat-extended within the TTL expires: the item is reclaimed
//     and re-issued to the next claimer without burning its seq.
//   - Heartbeat extends a lease mid-vet; Ack settles it (journaling the
//     settle so the item never replays); Nack returns the item for another
//     attempt. An item that exhausts MaxAttempts is dead-lettered through
//     the OnDead callback instead of cycling forever.
//
// Capacity bounds the *waiting* items, exactly like the channel queue this
// package replaced: admission takes a slot token (TryAcquire/Acquire),
// Claim returns it. Reclaimed and replayed items may transiently push the
// pending count past Capacity; the overflow is repaid from freed slots
// before new admissions see them.
package workqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"apichecker/internal/framelog"
	"apichecker/internal/obs"
)

// Typed queue failures.
var (
	// ErrFull: the queue is at capacity; nothing was enqueued.
	ErrFull = errors.New("workqueue: queue full")

	// ErrClosed: the queue has been closed (or shut down) and accepts no
	// new items.
	ErrClosed = errors.New("workqueue: queue closed")

	// ErrDrained: a graceful shutdown has settled every item; Claim has
	// nothing left to hand out, ever.
	ErrDrained = errors.New("workqueue: queue drained")

	// ErrNothingClaimable: ClaimWhere's until passed with nothing it could
	// take.
	ErrNothingClaimable = errors.New("workqueue: nothing claimable before the deadline")

	// ErrLeaseLost: the lease expired and its item was reclaimed (or the
	// queue closed under it); the holder's ack/heartbeat no longer counts.
	ErrLeaseLost = errors.New("workqueue: lease lost")
)

// Item is one queued submission.
type Item struct {
	// Seq is the vet sequence number — the item's identity across claims,
	// restarts, and logs. Reclaims and replays never burn it.
	Seq int64

	// Key is an optional content identity (digest) journaled with the
	// payload.
	Key string

	// Payload is the durable body (raw archive bytes). Items with a nil
	// Payload are memory-only: they are never journaled and do not survive
	// a restart.
	Payload []byte

	// Mem is an in-process attachment (contexts, parsed forms) that rides
	// the item between enqueue and claim but is lost on replay.
	Mem any

	// Attempts counts claims issued for this item, including the current
	// one.
	Attempts int

	// EnqueuedAt is the wall-clock admission time (this life; replayed
	// items restart the clock at replay).
	EnqueuedAt time.Time

	// Replayed marks an item restored from the journal at Open.
	Replayed bool
}

// Config tunes one queue.
type Config struct {
	// Capacity bounds the waiting items (claimed items ride on top);
	// <= 0 selects 64.
	Capacity int

	// LeaseTTL is how long a claim may go without an ack, nack, or
	// heartbeat before its item is reclaimed; 0 means leases never expire.
	LeaseTTL time.Duration

	// MaxAttempts bounds claims per item before it is dead-lettered;
	// <= 0 selects 3.
	MaxAttempts int

	// Dir, when non-empty, journals durable items (Payload != nil) so a
	// restart replays everything enqueued but never acked.
	Dir string

	// Now is the clock (tests inject a fake one); nil uses time.Now.
	Now func() time.Time

	// Obs, when set, receives the queue's gauges (svc.queue.depth,
	// svc.queue.leases), counters (svc.queue.enqueued/acked/nacked/
	// reclaimed/replayed/dead_lettered), and the svc.queue.lease_age
	// distribution (wall seconds per settled lease).
	Obs *obs.Collector

	// OnDead receives each dead-lettered item with the failure that
	// exhausted it. Called without queue locks held; the item is already
	// settled (it will not replay).
	OnDead func(Item, error)
}

// Stats is a point-in-time queue activity snapshot.
type Stats struct {
	Depth    int // items waiting for a claim
	Leased   int // items out under a live lease
	Capacity int

	Enqueued     uint64
	Acked        uint64
	Nacked       uint64
	Reclaimed    uint64 // leases expired and re-issued
	Replayed     uint64 // items restored from the journal at Open
	DeadLettered uint64

	// ReplaySkipped counts journal records dropped during replay because
	// they were torn or corrupt (a crash mid-append) — the post-crash
	// signal an operator checks before trusting a replayed backlog.
	ReplaySkipped uint64

	// JournalErrors counts settle records the journal failed to write. The
	// ack or dead-letter still stands in memory; the item re-vets after a
	// restart (first-wins absorbs it), so like ReplaySkipped this is a
	// number to read before trusting a replayed backlog.
	JournalErrors uint64
}

// seqHeap orders pending items by seq — FIFO order equals seq order, and
// a reclaimed item re-enters ahead of everything enqueued after it.
// Hand-rolled sift-up/sift-down rather than container/heap: the interface
// boxing on heap.Push/Pop costs an allocation per item on the hot path.
type seqHeap []Item

func (h *seqHeap) push(it Item) {
	s := append(*h, it)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].Seq <= s[i].Seq {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *seqHeap) pop() Item {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	it := s[n]
	s[n] = Item{} // release Payload/Mem references
	s = s[:n]
	*h = s
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s[r].Seq < s[m].Seq {
			m = r
		}
		if s[i].Seq <= s[m].Seq {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return it
}

// takeMin removes and returns the lowest-seq pending item accept allows;
// a nil accept takes the root. The filtered form scans the heap slice —
// linear, but the queue is capacity-bounded and only filtered claims
// (cluster affinity routing) pay it; plain claims pop the root.
func (h *seqHeap) takeMin(accept func(Item) bool) (Item, bool) {
	s := *h
	if len(s) == 0 {
		return Item{}, false
	}
	if accept == nil {
		return h.pop(), true
	}
	best := -1
	for i := range s {
		if !accept(s[i]) {
			continue
		}
		if best < 0 || s[i].Seq < s[best].Seq {
			best = i
		}
	}
	if best < 0 {
		return Item{}, false
	}
	return h.removeAt(best), true
}

// removeAt deletes the element at index i, restoring heap order.
func (h *seqHeap) removeAt(i int) Item {
	s := *h
	n := len(s) - 1
	it := s[i]
	s[i], s[n] = s[n], Item{}
	*h = s[:n]
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	return it
}

func (h seqHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Seq <= h[i].Seq {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (h seqHeap) siftDown(i int) {
	n := len(h)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && h[r].Seq < h[m].Seq {
			m = r
		}
		if h[i].Seq <= h[m].Seq {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// lease tracks one outstanding claim. Its times are offsets from the
// queue's epoch rather than time.Time values: that keeps the entry at the
// 128 bytes a Go map stores inline, so a claim allocates no map entry.
type leaseState struct {
	item     Item
	token    uint64
	deadline time.Duration // since epoch; zero when leases never expire
	leasedAt time.Duration // since epoch
}

// Queue is a running work queue. Construct with Open.
type Queue struct {
	cfg Config
	now func() time.Time
	// epoch is now() at Open, the origin of every lease time. An offset
	// from it is a difference of two clock readings, so with time.Now it
	// keeps the monotonic clock.
	epoch time.Time

	// slots carries one token per free queue position; admission takes a
	// token (TryAcquire/Acquire), Claim returns it — unless debt is
	// outstanding from replayed or reclaimed items that oversubscribed
	// capacity, in which case the freed slot repays the debt first.
	slots chan struct{}

	mu       sync.Mutex
	pending  seqHeap
	leases   map[int64]leaseState // by seq (value map: one less alloc per claim)
	debt     int
	token    uint64   // lease token source
	closed   bool     // no new enqueues; Claim drains then reports ErrDrained
	released bool     // Close called: journal shut, claims report ErrClosed
	waiting  WaitList // Claims blocked until the queue's state changes
	log      *framelog.Log
	nextSeq  int64 // last seq assigned to an item enqueued with Seq 0
	maxSeq   int64 // highest seq the journal had recorded at Open
	logSeq   int64 // highest seq the journal has recorded: a compaction's mark

	depth, leased                                      *obs.Gauge
	enqueued, acked, nacked, reclaimed, replayed, dead *obs.Counter
	replaySkipped, journalErrors                       *obs.Counter
	leaseAge                                           *obs.Distribution
}

// Open builds a queue. With cfg.Dir set it opens (or creates) the journal
// there and returns the replayed items — every submission a previous life
// enqueued but never acked, in seq order, already resident in the queue
// and ready to claim.
func Open(cfg Config) (*Queue, []Item, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	col := cfg.Obs
	if col == nil {
		col = obs.NewCollector()
	}
	q := &Queue{
		cfg:       cfg,
		now:       now,
		epoch:     now(),
		slots:     make(chan struct{}, cfg.Capacity),
		leases:    make(map[int64]leaseState),
		depth:     col.Gauge("svc.queue.depth"),
		leased:    col.Gauge("svc.queue.leases"),
		enqueued:  col.Counter("svc.queue.enqueued"),
		acked:     col.Counter("svc.queue.acked"),
		nacked:    col.Counter("svc.queue.nacked"),
		reclaimed: col.Counter("svc.queue.reclaimed"),
		replayed:  col.Counter("svc.queue.replayed"),
		dead:      col.Counter("svc.queue.dead_lettered"),
		leaseAge:  col.Distribution("svc.queue.lease_age"),
		// Torn/corrupt journal records dropped at replay: previously only
		// returned from openLog (and dropped), now a first-class counter.
		replaySkipped: col.Counter("workqueue.replay_skipped"),
		journalErrors: col.Counter("workqueue.journal_errors"),
	}
	for i := 0; i < cfg.Capacity; i++ {
		q.slots <- struct{}{}
	}

	var replayed []Item
	if cfg.Dir != "" {
		log, items, maxSeq, skipped, err := openLog(cfg.Dir)
		if err != nil {
			return nil, nil, err
		}
		q.log = log
		q.maxSeq, q.logSeq = maxSeq, maxSeq
		q.replaySkipped.Add(uint64(skipped))
		// The internal counter resumes past everything the journal ever
		// recorded; callers that pin seqs consult ReplayMaxSeq themselves.
		q.nextSeq = maxSeq
		replayed = items
		at := now()
		for i := range replayed {
			replayed[i].EnqueuedAt = at
			// Like a reclaim, a replayed item holds no admission token:
			// consume a free slot, or run above capacity on debt.
			select {
			case <-q.slots:
			default:
				q.debt++
			}
			q.insertLocked(replayed[i])
			q.replayed.Inc()
		}
	}
	return q, replayed, nil
}

// ReplayMaxSeq returns the highest sequence number the journal had ever
// recorded when the queue opened (0 without a journal or on a fresh one).
// Callers that pin seqs from a source of their own advance it past this so
// new admissions never collide with numbers a previous life consumed.
func (q *Queue) ReplayMaxSeq() int64 { return q.maxSeq }

// TryAcquire takes one queue slot without blocking; false means the queue
// is at capacity. A successful acquire must be followed by Enqueue or
// Release.
func (q *Queue) TryAcquire() bool {
	select {
	case <-q.slots:
		return true
	default:
		return false
	}
}

// Acquire blocks for a queue slot until one frees or ctx ends.
func (q *Queue) Acquire(ctx context.Context) error {
	select {
	case <-q.slots:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns an acquired slot unused (the admission failed
// validation or the service is draining). Like a claimed item's slot, it
// repays outstanding debt before it frees a token.
func (q *Queue) Release() {
	q.mu.Lock()
	q.releaseSlotLocked()
	q.mu.Unlock()
}

// Enqueue admits one item, consuming a slot the caller acquired. A zero
// Seq is assigned from the queue's own counter; the assigned seq is
// returned. With a journal, durable items are logged before they become
// claimable, so an accepted submission is crash-safe by the time Enqueue
// returns.
func (q *Queue) Enqueue(it Item) (int64, error) {
	q.mu.Lock()
	if q.closed {
		q.releaseSlotLocked()
		q.mu.Unlock()
		return 0, ErrClosed
	}
	if it.Seq == 0 {
		q.nextSeq++
		it.Seq = q.nextSeq
	}
	it.Attempts = 0
	it.EnqueuedAt = q.now()
	if q.log != nil && it.Payload != nil {
		if err := q.log.Append(encodeEnqueue(it)); err != nil {
			q.releaseSlotLocked()
			q.mu.Unlock()
			return 0, fmt.Errorf("workqueue: journal enqueue: %w", err)
		}
		q.logSeq = max(q.logSeq, it.Seq)
	}
	q.insertLocked(it)
	q.enqueued.Inc()
	q.pulseLocked()
	q.mu.Unlock()
	return it.Seq, nil
}

// insertLocked places an item in the pending heap without touching the
// slot tokens (the caller's token transferred in, or the item is a replay
// or reclaim riding above capacity via debt accounting on the way out).
func (q *Queue) insertLocked(it Item) {
	q.pending.push(it)
	q.depth.Set(int64(len(q.pending)))
}

// reinsertLocked returns a reclaimed or nacked item to pending. It holds
// no slot token: if one is free it is consumed, otherwise the queue runs
// above capacity and the next freed slot repays the debt.
func (q *Queue) reinsertLocked(it Item) {
	select {
	case <-q.slots:
	default:
		q.debt++
	}
	q.insertLocked(it)
	q.pulseLocked()
}

// releaseSlotLocked frees the slot a claimed item held, repaying debt
// first.
func (q *Queue) releaseSlotLocked() {
	if q.debt > 0 {
		q.debt--
		return
	}
	q.slots <- struct{}{}
}

// pulseLocked wakes every blocked Claim to rescan the queue state. With
// no claimer waiting (lanes all busy — the steady serving state) it does
// nothing.
func (q *Queue) pulseLocked() { q.waiting.WakeAll() }

// settledLocked wakes the blocked claims after a lease settled without
// returning its item: an ack, a dead letter, or a reclaim that left no
// lease. Only a drain can act on that — a Shutdown queue with nothing left
// reports ErrDrained, and AwaitDrained returns — so before Shutdown it
// wakes nobody.
func (q *Queue) settledLocked() {
	if q.closed {
		q.pulseLocked()
	}
}

// Claim blocks for the lowest-seq pending item and leases it to the
// caller. It returns ErrDrained once a Shutdown queue has settled
// everything, ErrClosed after Close, or ctx's error.
func (q *Queue) Claim(ctx context.Context) (Lease, error) {
	return q.ClaimWhere(ctx, time.Time{}, nil)
}

// ClaimWhere is Claim restricted to items accept allows and to a wait that
// ends at until: it leases the lowest-seq pending item for which accept
// reports true, waiting (like Claim) when nothing acceptable is pending,
// and returns ErrNothingClaimable once until has passed with nothing to
// take. This is the cluster coordinator's affinity hook — a claim request
// routes around items whose digest belongs to another live node, and
// re-reads liveness at each until. accept is called under the queue lock:
// it must be fast and must not call back into the queue. A nil accept and
// a zero until are plain Claim. The Lease is returned by value: a holder
// keeps it where it likes, and a claim allocates none.
func (q *Queue) ClaimWhere(ctx context.Context, until time.Time, accept func(Item) bool) (Lease, error) {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			waitTimers.Put(timer)
		}
	}()
	for {
		q.mu.Lock()
		if q.released {
			q.mu.Unlock()
			return Lease{}, ErrClosed
		}
		dead := q.reclaimLocked()
		if it, ok := q.pending.takeMin(accept); ok {
			q.depth.Set(int64(len(q.pending)))
			q.releaseSlotLocked()
			it.Attempts++
			q.token++
			ls := leaseState{item: it, token: q.token, leasedAt: q.clock()}
			if q.cfg.LeaseTTL > 0 {
				ls.deadline = ls.leasedAt + q.cfg.LeaseTTL
			}
			q.leases[it.Seq] = ls
			q.leased.Set(int64(len(q.leases)))
			q.mu.Unlock()
			q.fireDead(dead)
			return Lease{q: q, item: it, token: ls.token}, nil
		}
		if q.closed && len(q.pending) == 0 && len(q.leases) == 0 {
			q.mu.Unlock()
			q.fireDead(dead)
			return Lease{}, ErrDrained
		}
		if !until.IsZero() && !q.now().Before(until) {
			q.mu.Unlock()
			q.fireDead(dead)
			return Lease{}, ErrNothingClaimable
		}
		// Nothing claimable: wait for an enqueue, a nack, a shutdown, until
		// — or the earliest lease expiry, after which a rescan reclaims it.
		// The waiter is registered under q.mu, so no pulse between the
		// unlock and the select can be missed; its channel is reused wait
		// after wait. One timer serves every wait of the call, armed only
		// when something bounds the wait, and goes back to waitTimers
		// stopped when the call returns.
		w, next := q.waiting.Add(), until
		if q.cfg.LeaseTTL > 0 {
			for _, ls := range q.leases {
				if dl := q.epoch.Add(ls.deadline); next.IsZero() || dl.Before(next) {
					next = dl
				}
			}
		}
		var expiry <-chan time.Time
		if !next.IsZero() {
			d := max(next.Sub(q.now()), time.Millisecond)
			if timer == nil {
				timer = waitTimer(d)
			} else {
				timer.Reset(d)
			}
			expiry = timer.C
		}
		q.mu.Unlock()
		q.fireDead(dead)
		select {
		case <-w.C:
		case <-expiry:
		case <-ctx.Done():
		}
		if expiry != nil {
			timer.Stop()
		}
		q.mu.Lock()
		q.waiting.Done(w)
		q.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return Lease{}, err
		}
	}
}

// waitTimers holds the stopped timers of bounded waits that have returned,
// so the coordinator's sliced long-poll, one bounded ClaimWhere per slice,
// does not build a timer per slice. Since Go 1.23 a timer's channel is
// unbuffered: after Stop or Reset returns, no value sent for the old
// expiry can be received, so a timer from the pool never fires early.
var waitTimers sync.Pool

// waitTimer returns a timer that fires once after d, from waitTimers when
// it holds one.
func waitTimer(d time.Duration) *time.Timer {
	if t, ok := waitTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// AwaitDrained blocks until a Shutdown queue has settled every pending
// item and lease — the coordinator-mode drain primitive. A service whose
// claims all come from remote worker nodes has no local claim loop, yet
// something must keep expiring abandoned leases (and delivering their
// dead-letter callbacks) while the drain waits; AwaitDrained is that
// something: a claim that accepts nothing. Returns nil once the queue is
// drained (or was abruptly Closed, after which nothing more can settle),
// or ctx's error.
func (q *Queue) AwaitDrained(ctx context.Context) error {
	_, err := q.ClaimWhere(ctx, time.Time{}, func(Item) bool { return false })
	if errors.Is(err, ErrDrained) || errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}

// reclaimLocked expires overdue leases: their items return to pending
// (keeping their seqs) unless attempts are exhausted, in which case they
// are settled and returned for dead-letter callbacks outside the lock.
func (q *Queue) reclaimLocked() []deadItem {
	if q.cfg.LeaseTTL <= 0 || len(q.leases) == 0 {
		return nil
	}
	now := q.clock()
	var dead []deadItem
	for seq, ls := range q.leases {
		if ls.deadline > now {
			continue
		}
		delete(q.leases, seq)
		q.leaseAge.Observe((now - ls.leasedAt).Seconds())
		q.reclaimed.Inc()
		cause := fmt.Errorf("%w: lease expired after %d attempt(s)", ErrLeaseLost, ls.item.Attempts)
		if ls.item.Attempts >= q.cfg.MaxAttempts {
			dead = append(dead, q.settleDeadLocked(ls.item, cause))
		} else {
			q.reinsertLocked(ls.item)
		}
	}
	q.leased.Set(int64(len(q.leases)))
	if len(dead) > 0 || len(q.leases) == 0 {
		q.settledLocked()
	}
	return dead
}

// deadItem pairs a dead-lettered item with its terminal cause for the
// OnDead callback.
type deadItem struct {
	item  Item
	cause error
}

// settleDeadLocked books one dead-lettered item: journal settle (it must
// not replay) and counters. The freed slot is NOT returned here — the
// item was leased, and the lease's slot was already released at claim.
func (q *Queue) settleDeadLocked(it Item, cause error) deadItem {
	q.dead.Inc()
	q.journalSettleLocked(it)
	return deadItem{item: it, cause: cause}
}

// journalSettleLocked records that a durable item is settled (acked or
// dead-lettered) and will not replay, then lets the journal compact to the
// unsettled durable items, pending and leased, if it has outgrown them,
// after a mark that keeps the highest seq it has recorded.
// Best effort: a failed write is counted, not returned — the item then
// re-vets after a restart and first-wins absorbs the duplicate. After
// Close nothing is written; the in-memory queue stays authoritative for
// this life.
func (q *Queue) journalSettleLocked(it Item) {
	if q.log == nil || it.Payload == nil || q.released {
		return
	}
	if err := q.log.Append(encodeSettle(it.Seq)); err != nil {
		q.journalErrors.Inc()
		return
	}
	q.log.Compact(func(add func(frame []byte)) {
		add(encodeMark(q.logSeq))
		keep := func(it Item) {
			if it.Payload != nil { // memory-only items were never journaled
				add(encodeEnqueue(it))
			}
		}
		for _, it := range q.pending {
			keep(it)
		}
		for _, ls := range q.leases {
			keep(ls.item)
		}
	})
}

// fireDead delivers dead-letter callbacks outside the queue lock.
func (q *Queue) fireDead(dead []deadItem) {
	if q.cfg.OnDead == nil {
		return
	}
	for _, d := range dead {
		q.cfg.OnDead(d.item, d.cause)
	}
}

// Stats snapshots queue activity.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	depth, leased := len(q.pending), len(q.leases)
	q.mu.Unlock()
	return Stats{
		Depth:         depth,
		Leased:        leased,
		Capacity:      q.cfg.Capacity,
		Enqueued:      q.enqueued.Load(),
		Acked:         q.acked.Load(),
		Nacked:        q.nacked.Load(),
		Reclaimed:     q.reclaimed.Load(),
		Replayed:      q.replayed.Load(),
		DeadLettered:  q.dead.Load(),
		ReplaySkipped: q.replaySkipped.Load(),
		JournalErrors: q.journalErrors.Load(),
	}
}

// LeaseTTL returns the configured lease TTL (0 when leases never expire)
// — claim responses ship it so remote workers can pace heartbeats.
func (q *Queue) LeaseTTL() time.Duration { return q.cfg.LeaseTTL }

// Shutdown begins a graceful drain: no new enqueues (ErrClosed), but
// pending items remain claimable and outstanding leases can still settle.
// Once everything is settled, Claim reports ErrDrained.
func (q *Queue) Shutdown() {
	q.mu.Lock()
	q.closed = true
	q.pulseLocked()
	q.mu.Unlock()
}

// Close releases the queue abruptly: enqueues and claims fail, blocked
// claims wake, and the journal file handle closes — pending items stay
// journaled (unsettled) exactly as a crash would leave them, which is the
// point: the next Open replays them.
func (q *Queue) Close() error {
	q.mu.Lock()
	q.closed, q.released = true, true
	var err error
	if q.log != nil {
		err = q.log.Close()
	}
	q.pulseLocked()
	q.mu.Unlock()
	return err
}

// LeaseID names one claim: its item's seq and the token the claim was
// issued under. It is all a holder in another process keeps of a lease —
// a cluster coordinator ships it in the claim frame and a node echoes it
// on every heartbeat, ack and nack — and all the queue needs to settle
// one: the queue's lease table is the only record of who holds what. A
// reclaimed item is re-issued under a new token, so a stale ID is refused
// exactly like a stale Lease.
type LeaseID struct {
	Seq   int64
	Token uint64
}

// Lease is one claim on one item, a value its holder keeps. The holder
// must settle it exactly once with Ack or Nack; Heartbeat extends it
// mid-work.
type Lease struct {
	q     *Queue
	item  Item
	token uint64
}

// Item returns the leased item (Attempts counts this claim).
func (l *Lease) Item() Item { return l.item }

// ID returns the claim's name in the queue's lease table.
func (l *Lease) ID() LeaseID { return LeaseID{Seq: l.item.Seq, Token: l.token} }

// Valid reports whether the lease is still live — its item has not been
// reclaimed out from under the holder.
func (l *Lease) Valid() bool {
	l.q.mu.Lock()
	_, ok := l.q.heldLocked(l.ID())
	l.q.mu.Unlock()
	return ok
}

// Heartbeat is Queue.Heartbeat on this lease.
func (l *Lease) Heartbeat() error { return l.q.Heartbeat(l.ID()) }

// Ack is Queue.Ack on this lease.
func (l *Lease) Ack() error { return l.q.Ack(l.ID()) }

// Nack is Queue.Nack on this lease.
func (l *Lease) Nack(cause error) (requeued bool, err error) { return l.q.Nack(l.ID(), cause) }

// clock reads the queue's clock as an offset from its epoch.
func (q *Queue) clock() time.Duration { return q.now().Sub(q.epoch) }

// heldLocked resolves id against the lease table: false when its item was
// reclaimed (and possibly re-issued under another token) or settled.
func (q *Queue) heldLocked(id LeaseID) (leaseState, bool) {
	ls, ok := q.leases[id.Seq]
	return ls, ok && ls.token == id.Token
}

// Heartbeat extends the lease id names by one TTL (a no-op without a
// TTL). It fails with ErrLeaseLost if the lease has already been
// reclaimed.
func (q *Queue) Heartbeat(id LeaseID) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	ls, ok := q.heldLocked(id)
	if !ok {
		return ErrLeaseLost
	}
	if q.cfg.LeaseTTL > 0 {
		ls.deadline = q.clock() + q.cfg.LeaseTTL
		q.leases[id.Seq] = ls
	}
	return nil
}

// Ack settles the lease id names as done: the item is journaled settled
// (it will never replay) and leaves the queue for good. Fails with
// ErrLeaseLost if the item was reclaimed — the result now belongs to a
// later claim.
func (q *Queue) Ack(id LeaseID) error {
	q.mu.Lock()
	ls, ok := q.heldLocked(id)
	if !ok {
		q.mu.Unlock()
		return ErrLeaseLost
	}
	delete(q.leases, id.Seq)
	q.leased.Set(int64(len(q.leases)))
	q.leaseAge.Observe((q.clock() - ls.leasedAt).Seconds())
	q.acked.Inc()
	q.journalSettleLocked(ls.item)
	q.settledLocked()
	q.mu.Unlock()
	return nil
}

// Nack returns the item of the lease id names for another attempt
// (requeued true) — unless its attempts are exhausted, in which case it is
// dead-lettered with cause (requeued false, OnDead fired). Fails with
// ErrLeaseLost if the item was already reclaimed.
func (q *Queue) Nack(id LeaseID, cause error) (requeued bool, err error) {
	q.mu.Lock()
	ls, ok := q.heldLocked(id)
	if !ok {
		q.mu.Unlock()
		return false, ErrLeaseLost
	}
	delete(q.leases, id.Seq)
	q.leased.Set(int64(len(q.leases)))
	q.leaseAge.Observe((q.clock() - ls.leasedAt).Seconds())
	q.nacked.Inc()
	var dead []deadItem
	if ls.item.Attempts >= q.cfg.MaxAttempts {
		if cause == nil {
			cause = fmt.Errorf("workqueue: nacked after %d attempt(s)", ls.item.Attempts)
		}
		dead = append(dead, q.settleDeadLocked(ls.item, cause))
		q.settledLocked()
		q.mu.Unlock()
		q.fireDead(dead)
		return false, nil
	}
	q.reinsertLocked(ls.item)
	q.mu.Unlock()
	return true, nil
}
