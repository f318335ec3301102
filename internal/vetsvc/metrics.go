package vetsvc

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"

	"apichecker/internal/core"
	"apichecker/internal/obs"
	"apichecker/internal/vcache"
)

// Metrics is an immutable snapshot of service activity since start. Scan
// latencies are in virtual-clock seconds (the calibrated emulation clock
// the paper reports per-app scan cost in), so quantiles are deterministic
// and host-speed independent.
//
// The snapshot is a thin view over the service's obs.Collector: every
// counter below is an obs counter (svc.accepted, svc.timeouts,
// svc.engine.<name>, …) and every distribution an obs distribution
// (svc.scan.all/miss/hit), so attaching a Sink or reading
// Service.Obs().Counters() observes exactly the numbers reported here.
type Metrics struct {
	// Admission counters.
	Accepted uint64
	Rejected uint64 // queue-full rejections (ErrQueueFull)

	// Completion counters. Completed + Timeouts + Drained + Canceled +
	// Failed == the number of settled submissions.
	Completed uint64
	Timeouts  uint64 // deadline expiries (ErrDeadlineExceeded)
	Drained   uint64 // aborted by a hard service drain (ErrDraining)
	Canceled  uint64 // caller-canceled contexts
	Failed    uint64 // any other vet error

	// Verdict-cache accounting over completed submissions. A miss paid a
	// full emulation; a hit was answered from the digest-keyed cache; a
	// coalesced completion blocked on a concurrent identical submission's
	// emulation; a bypass means the cache was disabled or the payload had
	// no digest (and therefore also paid a full emulation).
	CacheHits      uint64
	CacheMisses    uint64
	CacheCoalesced uint64
	CacheBypass    uint64

	// Reliability accounting (§5.1), aggregated from emulated completions
	// only — a cache-served verdict repeats the leader's crash/fallback
	// fields, so counting it again would invent emulator activity that
	// never happened.
	Crashes            uint64 // total transient emulator crashes restarted through
	CrashedSubmissions uint64 // submissions with at least one crash
	Fallbacks          uint64 // submissions re-run on the fallback engine

	// EngineRuns counts emulated completions by the engine that produced
	// the final log (lightweight vs the stock Google engine).
	EngineRuns map[string]uint64

	// Scan-latency distribution over all completed submissions, virtual
	// seconds. Kept for continuity; under cache traffic prefer the split
	// distributions below, since cheap cache-served completions would
	// otherwise mask emulation-path regressions.
	ScanMean float64
	ScanP50  float64
	ScanP95  float64
	ScanP99  float64

	// MissScan is the emulation-path distribution (cache misses and
	// bypasses) — the one to watch for engine regressions. HitScan covers
	// cache-served completions (hits and coalesced); it reports the
	// verdicts' recorded virtual scan time, identical to what the same
	// submissions would have cost uncached.
	MissScan ScanStats
	HitScan  ScanStats

	// Tier accounting over completed submissions: Tier1 counts verdicts
	// answered by the static triage pre-screen (including cache-served
	// replays of tier-1 verdicts), Tier2 everything that paid the full
	// emulation path. Tier1Scan/Tier2Scan split the scan-latency
	// distribution by tier, so the triage speedup and the emulation-path
	// latency are visible separately — the flat ScanMean blends a
	// microsecond tier with a half-minute tier into a meaningless middle.
	Tier1     uint64
	Tier2     uint64
	Tier1Scan ScanStats
	Tier2Scan ScanStats

	// Instantaneous gauges at snapshot time, views over the durable work
	// queue: QueueDepth is the pending backlog, InFlight the live leases
	// (claims a lane is executing right now).
	QueueDepth int // submissions waiting for a lane
	InFlight   int // submissions being vetted right now (live leases)

	// Queue-layer accounting since start. Acked counts settled claims,
	// Nacked failed ones (panics), Reclaims leases that expired and were
	// re-issued, Replayed submissions re-admitted from the intake journal
	// after a restart, DeadLettered submissions that exhausted their claim
	// attempts (ErrPoisoned), WorkerPanics recovered vet panics. LeaseAge
	// is the wall-clock seconds a claim was held before settling or being
	// reclaimed — lease pressure, where scan stats are virtual-clock.
	QueueAcked    uint64
	QueueNacked   uint64
	Reclaims      uint64
	Replayed      uint64
	ReplaySkipped uint64 // torn/corrupt journal records dropped at replay
	DeadLettered  uint64
	WorkerPanics  uint64
	LeaseAge      ScanStats

	// Memory accounting at snapshot time. CacheEntries and CacheLiveBytes
	// come from the checker's verdict cache (flat-entry bytes, the
	// measurable live-heap contribution of memoization); HeapLiveBytes is
	// the process's live heap (runtime.MemStats.HeapAlloc).
	CacheEntries   int
	CacheLiveBytes int64
	HeapLiveBytes  uint64

	// Persist reports the optional file-backed verdict tier (zero-valued
	// with Enabled false when none is attached). Restored/Skipped are the
	// warm-start hit/miss counters.
	Persist core.PersistStats

	// Model-lifecycle state at snapshot time, read from the serving
	// checker: the generation currently answering vets, its registry
	// digest (empty for a generation trained in-process and never
	// snapshotted), and the total hot-swaps since the checker was built.
	ModelGeneration uint64
	ModelDigest     string
	ModelSwaps      uint64
}

// ScanStats is one scan-latency distribution in virtual-clock seconds:
// Count and Mean over every sample it has seen, quantiles over the window
// it retains.
type ScanStats = obs.Summary

// enginePrefix namespaces per-engine completion counters on the service
// collector.
const enginePrefix = "svc.engine."

// counters holds the service's obs handles: monotonic counters and scan
// distributions live on the collector (shared with any attached sinks).
// Queue gauges and counters (svc.queue.*) are registered on the same
// collector by the workqueue itself; in-flight and depth are read from
// queue stats, not tracked here.
type counters struct {
	col *obs.Collector

	accepted, rejected                           *obs.Counter
	completed, timeouts, drained, cancel, failed *obs.Counter
	hits, misses, coalesced, bypass              *obs.Counter
	crashes, crashedSubs, fallbacks              *obs.Counter
	panics                                       *obs.Counter

	tier1, tier2 *obs.Counter

	// engines maps an engine's name to its svc.engine.<name> counter,
	// resolved on col the first time a completion names that engine, so a
	// completion neither builds the name nor takes the collector's lock.
	engines sync.Map

	scans      *obs.Distribution // all completions, virtual seconds
	missScans  *obs.Distribution // emulated completions only
	hitScans   *obs.Distribution // cache-served completions only
	tier1Scans *obs.Distribution // triage short-circuits
	tier2Scans *obs.Distribution // full emulation-path verdicts
	leaseAges  *obs.Distribution // wall seconds per settled/reclaimed lease
}

// newCounters resolves the service's counter and distribution handles on
// its collector.
func newCounters(col *obs.Collector) counters {
	return counters{
		col:         col,
		accepted:    col.Counter("svc.accepted"),
		rejected:    col.Counter("svc.rejected"),
		completed:   col.Counter("svc.completed"),
		timeouts:    col.Counter("svc.timeouts"),
		drained:     col.Counter("svc.drained"),
		cancel:      col.Counter("svc.canceled"),
		failed:      col.Counter("svc.failed"),
		hits:        col.Counter("svc.cache.hits"),
		misses:      col.Counter("svc.cache.misses"),
		coalesced:   col.Counter("svc.cache.coalesced"),
		bypass:      col.Counter("svc.cache.bypass"),
		crashes:     col.Counter("svc.crashes"),
		crashedSubs: col.Counter("svc.crashed_submissions"),
		fallbacks:   col.Counter("svc.fallbacks"),
		panics:      col.Counter("svc.worker.panics"),
		tier1:       col.Counter("svc.tier1"),
		tier2:       col.Counter("svc.tier2"),
		scans:       col.Distribution("svc.scan.all"),
		missScans:   col.Distribution("svc.scan.miss"),
		hitScans:    col.Distribution("svc.scan.hit"),
		tier1Scans:  col.Distribution("svc.scan.tier1"),
		tier2Scans:  col.Distribution("svc.scan.tier2"),
		leaseAges:   col.Distribution("svc.queue.lease_age"),
	}
}

// finishJob books one settled submission.
func (c *counters) finishJob(v *core.Verdict, err error, out vcache.Outcome) {
	switch {
	case err == nil:
		c.completed.Inc()
		sec := v.ScanTime.Seconds()
		c.scans.Observe(sec)
		if v.Tier == 1 {
			c.tier1.Inc()
			c.tier1Scans.Observe(sec)
		} else {
			c.tier2.Inc()
			c.tier2Scans.Observe(sec)
		}
		switch out {
		case vcache.OutcomeHit:
			c.hits.Inc()
		case vcache.OutcomeCoalesced:
			c.coalesced.Inc()
		case vcache.OutcomeMiss:
			c.misses.Inc()
		default:
			c.bypass.Inc()
		}
		if out.Served() {
			c.hitScans.Observe(sec)
			return // no emulation happened; reliability already booked by the leader
		}
		c.missScans.Observe(sec)
		if v.Crashes > 0 {
			c.crashes.Add(uint64(v.Crashes))
			c.crashedSubs.Inc()
		}
		if v.FellBack {
			c.fallbacks.Inc()
		}
		if v.Engine != "" {
			c.engine(v.Engine).Inc()
		}
	case errors.Is(err, core.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		c.timeouts.Inc()
	case errors.Is(err, ErrDraining):
		// Checked before the bare-cancel bucket: a drain abort wraps both
		// ErrDraining and context.Canceled.
		c.drained.Inc()
	case errors.Is(err, context.Canceled):
		c.cancel.Inc()
	default:
		c.failed.Inc()
	}
}

// engine returns the completion counter of the named engine.
func (c *counters) engine(name string) *obs.Counter {
	e, ok := c.engines.Load(name)
	if !ok {
		e, _ = c.engines.LoadOrStore(name, c.col.Counter(enginePrefix+name))
	}
	return e.(*obs.Counter)
}

// Metrics returns a consistent snapshot; quantiles are computed over a
// sorted copy of the completed-scan samples (nearest-rank).
func (s *Service) Metrics() Metrics {
	c := &s.m
	m := Metrics{
		Accepted:           c.accepted.Load(),
		Rejected:           c.rejected.Load(),
		Completed:          c.completed.Load(),
		Timeouts:           c.timeouts.Load(),
		Drained:            c.drained.Load(),
		Canceled:           c.cancel.Load(),
		Failed:             c.failed.Load(),
		CacheHits:          c.hits.Load(),
		CacheMisses:        c.misses.Load(),
		CacheCoalesced:     c.coalesced.Load(),
		CacheBypass:        c.bypass.Load(),
		Crashes:            c.crashes.Load(),
		CrashedSubmissions: c.crashedSubs.Load(),
		Fallbacks:          c.fallbacks.Load(),
		Tier1:              c.tier1.Load(),
		Tier2:              c.tier2.Load(),
		WorkerPanics:       c.panics.Load(),
		EngineRuns:         make(map[string]uint64),
	}
	for name, n := range c.col.Counters() {
		if eng, ok := strings.CutPrefix(name, enginePrefix); ok {
			m.EngineRuns[eng] = n
		}
	}
	qs := s.q.Stats()
	m.QueueDepth = qs.Depth
	m.InFlight = qs.Leased
	m.QueueAcked = qs.Acked
	m.QueueNacked = qs.Nacked
	m.Reclaims = qs.Reclaimed
	m.Replayed = qs.Replayed
	m.ReplaySkipped = qs.ReplaySkipped
	m.DeadLettered = qs.DeadLettered
	m.LeaseAge = c.leaseAges.Summary()

	cs := s.ck.CacheStats()
	m.CacheEntries = cs.Entries
	m.CacheLiveBytes = cs.LiveBytes
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapLiveBytes = ms.HeapAlloc
	m.Persist = s.ck.PersistStats()

	gen := s.ck.Generation()
	m.ModelGeneration = gen.ID
	m.ModelDigest = gen.Digest
	m.ModelSwaps = s.ck.Obs().Counter("model.swaps").Load()

	m.MissScan = c.missScans.Summary()
	m.HitScan = c.hitScans.Summary()
	m.Tier1Scan = c.tier1Scans.Summary()
	m.Tier2Scan = c.tier2Scans.Summary()
	all := c.scans.Summary()
	m.ScanMean, m.ScanP50, m.ScanP95, m.ScanP99 = all.Mean, all.P50, all.P95, all.P99
	return m
}
