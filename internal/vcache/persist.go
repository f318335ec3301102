// Persistent verdict-cache tier: flat cache entries in a framelog, so a
// restarted serving node warm-starts its hit rate instead of re-emulating
// everything it had already memoized. framelog owns the file (header,
// frames, CRC, torn-tail repair, compaction); this file owns what is
// specific to a cache of verdicts.
//
// The log is keyed by a generation key (the serving model identity) carried
// in its header line: a snapshot recorded under one model is worthless —
// actively wrong — under another, so Open discards the file wholesale on
// key mismatch and lifecycle swaps Reset it exactly like the in-memory
// epoch bump drops the live entries.
//
// Frame body (little-endian); the value is the rest of the frame:
//
//	u32 keyLen | key | val
package vcache

import (
	"fmt"
	"sync"

	"apichecker/internal/framelog"
	"apichecker/internal/wire"
)

// persistFile is the log's name inside the persist directory.
const persistFile = "vcache.log"

// persistMagic versions the header line (the generation key follows it);
// bump on layout changes.
const persistMagic = "vcachelog/2 "

// PersistLog is the file-backed warm-start tier for a Cache[[]byte].
// One writer (the serving process) appends entries as they are stored;
// OpenPersist replays them on the next start if the generation key still
// matches. Safe for concurrent use.
type PersistLog struct {
	mu     sync.Mutex
	epoch  uint64 // cache epoch appends must match (see AppendCurrent)
	log    *framelog.Log
	closed bool

	// snapshot (EnableCompaction) emits the live entries a compaction
	// rewrites the log to; nil disables compaction and the log grows
	// unbounded within a generation.
	snapshot func(emit func(key string, val []byte))

	appends, resets uint64
}

// OpenPersist opens (or creates) the persist log in dir. genKey is the
// serving model's identity (artifact digest or equivalent fingerprint);
// epoch is the live cache's current epoch, which appends are gated on.
//
// When the existing log carries the same genKey, its records are replayed
// through restore (good records only, in append order; restore may keep
// val) and appending continues where the log left off. A different key, a
// missing file or an unrecognised header starts a fresh log: the old
// snapshot is worthless under this model, and keeping it would only
// resurrect stale verdicts on some future restart. A file that cannot be
// opened or read is an error, not a reason to start over. restored reports
// how many entries were replayed and skipped reports records dropped as
// torn or corrupt.
func OpenPersist(dir, genKey string, epoch uint64, restore func(key string, val []byte)) (p *PersistLog, restored, skipped int, err error) {
	if genKey == "" {
		return nil, 0, 0, fmt.Errorf("vcache: persist requires a non-empty generation key")
	}
	log, skipped, err := framelog.Open(dir, persistFile, persistMagic+genKey, func(body []byte) bool {
		key, val, ok := decodeRecord(body)
		if ok {
			if restore != nil {
				restore(key, val)
			}
			restored++
		}
		return ok
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("vcache: persist: %w", err)
	}
	return &PersistLog{epoch: epoch, log: log}, restored, skipped, nil
}

// EnableCompaction installs the live-snapshot source compaction rewrites
// the log from — typically the owning cache's current-generation entries.
// snapshot runs with the log lock held and must not call back into this
// PersistLog. Without it the log is never compacted.
func (p *PersistLog) EnableCompaction(snapshot func(emit func(key string, val []byte))) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snapshot = snapshot
}

// decodeRecord parses one frame body; ok is false when the key length is
// missing or longer than the body can back. val aliases body.
func decodeRecord(body []byte) (key string, val []byte, ok bool) {
	r := wire.NewReader(body)
	key = r.String(int(r.U32()))
	val = r.Rest()
	if r.Err() != nil {
		return "", nil, false
	}
	return key, val, true
}

// encodeRecord builds the frame that persists one key/value.
func encodeRecord(key string, val []byte) []byte {
	buf := framelog.NewFrame(4 + len(key) + len(val))
	buf = wire.AppendString32(buf, key)
	return append(buf, val...)
}

// AppendCurrent appends one entry if epoch still matches the log's —
// the on-disk analogue of TryPut's epoch condition. An append racing a
// Reset (model swap) is either rejected here or lands in the old file
// before the rename replaces it; a stale entry can never reach the log
// that survives.
func (p *PersistLog) AppendCurrent(key string, val []byte, epoch uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || epoch != p.epoch {
		return nil
	}
	if err := p.log.Append(encodeRecord(key, val)); err != nil {
		return fmt.Errorf("vcache: persist append: %w", err)
	}
	p.appends++
	if p.snapshot != nil {
		p.log.Compact(func(add func(frame []byte)) {
			p.snapshot(func(key string, val []byte) { add(encodeRecord(key, val)) })
		})
	}
	return nil
}

// Reset discards every persisted entry and re-keys the log — the
// on-disk mirror of BumpEpoch, called by lifecycle swaps with the new
// model's key and the post-bump epoch.
func (p *PersistLog) Reset(genKey string, epoch uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.epoch = epoch
	p.resets++
	if err := p.log.Reset(persistMagic + genKey); err != nil {
		return fmt.Errorf("vcache: persist reset: %w", err)
	}
	return nil
}

// PersistCounters is the persist-tier activity snapshot Counters returns
// (the persist rows of the service metrics dump).
type PersistCounters struct {
	Appends uint64 // records written through since open
	Resets  uint64 // lifecycle re-keys
	// Compactions counts log rewrites that bounded on-disk growth;
	// CompactErrors counts failed rewrite attempts (the log keeps
	// appending, just unbounded until one succeeds).
	Compactions   uint64
	CompactErrors uint64
}

// Counters reports persist-tier activity since open.
func (p *PersistLog) Counters() PersistCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := PersistCounters{Appends: p.appends, Resets: p.resets}
	c.Compactions, c.CompactErrors = p.log.Counters()
	return c
}

// Close closes the log; further appends are silently dropped (the
// in-memory cache remains authoritative).
func (p *PersistLog) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	return p.log.Close()
}
