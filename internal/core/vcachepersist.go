package core

import (
	"fmt"

	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
)

// Persistent verdict-cache wiring: the optional file-backed tier under the
// in-memory cache (Config.VerdictPersistDir). Entries are the same flat
// EncodeEntry buffers the live cache stores, appended write-through as
// verdicts are memoized and replayed on the next start — so a restarted
// serving node warm-starts its hit rate instead of re-emulating everything
// it had already answered.
//
// The tier is keyed by the serving model's identity, the generation's
// artifact digest. A snapshot recorded under any other model is discarded
// wholesale at open, and SwapModel resets the log exactly like it bumps
// the in-memory epoch — a persisted verdict can no more outlive its model
// than a cached one.

// attachPersist opens (or creates) the persist log, replays a matching
// snapshot into the live cache, and taps the cache's store hook for
// write-through appends. Called once from NewFromParts, before the
// checker is published.
func (ck *Checker) attachPersist(dir string) error {
	if ck.cache == nil {
		return fmt.Errorf("core: VerdictPersistDir requires the verdict cache (VerdictCache >= 0)")
	}
	bad := 0
	p, restored, skipped, err := vcache.OpenPersist(dir, ck.persistGenKey(), ck.cache.Epoch(), func(k string, v []byte) {
		// Replay defensively: an entry that does not decode (a layout
		// change between binaries, say) must not enter the serving cache.
		if _, derr := pipeline.DecodeEntry(v, new(pipeline.Verdict), nil); derr != nil {
			bad++
			return
		}
		ck.cache.Put(k, v)
	})
	if err != nil {
		return fmt.Errorf("core: verdict persist: %w", err)
	}
	ck.persist = p
	// Compaction source: the live cache's current-generation entries, so a
	// long-lived generation's log stays bounded by what the cache actually
	// holds instead of accreting every re-store of an evicted key.
	p.EnableCompaction(func(emit func(key string, val []byte)) {
		ck.cache.Range(func(k string, v []byte) bool {
			emit(k, v)
			return true
		})
	})
	// Tap installed only after replay, so restoring entries does not
	// re-append them to the log they came from.
	appendErrors := ck.obs.Counter("vcache.persist.append_errors")
	ck.cache.OnStore(func(k string, v []byte, epoch uint64) {
		// The disk tier is an optimization — the in-memory cache stays
		// authoritative — so a failed append never fails the store; but it
		// must be visible, or a full disk disables warm-start persistence
		// silently behind an Enabled=true stats row.
		if err := p.AppendCurrent(k, v, epoch); err != nil {
			appendErrors.Inc()
		}
	})
	ck.obs.Counter("vcache.persist.restored").Add(uint64(restored - bad))
	ck.obs.Counter("vcache.persist.skipped").Add(uint64(skipped + bad))
	return nil
}

// AttachPersist enables the file-backed verdict tier on a checker built
// without Config.VerdictPersistDir — the cold-start path, where the model
// registry instantiates the checker before the caller knows whether
// persistence is wanted. Call it before the checker starts serving; it
// errors if a tier is already attached or the verdict cache is disabled.
func (ck *Checker) AttachPersist(dir string) error {
	if ck.persist != nil {
		return fmt.Errorf("core: verdict persistence already attached")
	}
	return ck.attachPersist(dir)
}

// persistGenKey is the identity the persisted tier is keyed by: the
// serving generation's artifact digest, in the form registry-backed nodes
// have always written. The node config is not in it, so two checkers
// serving the same model under any node configs share a key.
func (ck *Checker) persistGenKey() string { return "model:" + ck.gen.Load().Digest }

// resetPersist re-keys the persist log for the newly swapped-in
// generation, discarding every persisted verdict — swap's on-disk mirror
// of the cache epoch bump. Best effort: a failed reset disables appends
// for the stale epoch anyway (AppendCurrent's epoch gate), so stale
// entries still cannot land.
func (ck *Checker) resetPersist() {
	if ck.persist == nil {
		return
	}
	if err := ck.persist.Reset(ck.persistGenKey(), ck.cache.Epoch()); err != nil {
		ck.obs.Counter("vcache.persist.reset_errors").Inc()
	}
}

// PersistStats reports the persistent-tier counters; Enabled is false (and
// everything zero) when no persist directory was configured.
type PersistStats struct {
	Enabled bool
	// Restored counts entries replayed into the live cache at open (the
	// warm-start hits); Skipped counts records dropped at open as torn,
	// corrupt, or undecodable (the warm-start misses).
	Restored uint64
	Skipped  uint64
	// Appends counts write-through records since open; AppendErrors counts
	// appends that failed (full disk, permissions) — persistence is
	// silently degraded while it grows, the in-memory cache is unaffected.
	// Resets counts lifecycle re-keys.
	Appends      uint64
	AppendErrors uint64
	Resets       uint64
	// Compactions counts log rewrites bounding on-disk growth to the live
	// cache contents; CompactErrors counts failed rewrite attempts.
	Compactions   uint64
	CompactErrors uint64
}

// PersistStats snapshots the persistent verdict-tier counters.
func (ck *Checker) PersistStats() PersistStats {
	if ck.persist == nil {
		return PersistStats{}
	}
	c := ck.persist.Counters()
	return PersistStats{
		Enabled:       true,
		Restored:      ck.obs.Counter("vcache.persist.restored").Load(),
		Skipped:       ck.obs.Counter("vcache.persist.skipped").Load(),
		Appends:       c.Appends,
		AppendErrors:  ck.obs.Counter("vcache.persist.append_errors").Load(),
		Resets:        c.Resets,
		Compactions:   c.Compactions,
		CompactErrors: c.CompactErrors,
	}
}

// ClosePersist flushes and closes the persistent verdict tier, if any.
// The checker remains fully serviceable; further stores simply stop being
// persisted.
func (ck *Checker) ClosePersist() error {
	if ck.persist == nil {
		return nil
	}
	return ck.persist.Close()
}
