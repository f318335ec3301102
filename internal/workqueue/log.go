// Durable intake journal: enqueue and settle records in a framelog, so a
// killed serving node replays every submission it accepted but never
// acknowledged. framelog owns the file (header, frames, CRC, torn-tail
// repair, compaction); this file owns what a frame's body means and how a
// log folds into the items a restart must re-vet.
//
// Two bodies (little-endian); the payload is the rest of the frame:
//
//	enqueue: u8 1 | u64 seq | u32 keyLen | key | payload
//	settle:  u8 2 | u64 seq
//
// A settle for an unknown seq is ignored (its enqueue record was dropped
// by a compaction).
package workqueue

import (
	"encoding/binary"
	"sort"

	"apichecker/internal/framelog"
	"apichecker/internal/wire"
)

// logFile is the journal's name inside the queue directory.
const logFile = "workqueue.log"

// logMagic is the journal's header line; bump on layout changes. A file
// under any other header is replaced by an empty journal, so drain a node
// before upgrading it across a bump.
const logMagic = "workqueuelog/2"

// Record type tags.
const (
	recEnqueue = 1
	recSettle  = 2
)

// openLog opens (or creates) the journal in dir and replays it: items
// returns every enqueued-but-unsettled submission in seq order, maxSeq the
// highest seq the log has ever recorded (settled or not, so the caller can
// advance its seq source past numbers a previous life consumed), and
// skipped the records dropped as torn or corrupt.
func openLog(dir string) (l *framelog.Log, items []Item, maxSeq int64, skipped int, err error) {
	live := make(map[int64]Item)
	l, skipped, err = framelog.Open(dir, logFile, logMagic, func(body []byte) bool {
		it, settled, ok := decodeRecord(body)
		if !ok {
			return false
		}
		maxSeq = max(maxSeq, it.Seq)
		if settled {
			delete(live, it.Seq)
		} else {
			it.Replayed = true
			live[it.Seq] = it
		}
		return true
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	items = make([]Item, 0, len(live))
	for _, it := range live {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Seq < items[j].Seq })
	return l, items, maxSeq, skipped, nil
}

// decodeRecord parses one frame body. ok is false for a body no encoder
// here wrote: an unknown kind, a settle of the wrong size, a key length the
// body cannot back. The payload aliases body.
func decodeRecord(body []byte) (it Item, settled, ok bool) {
	r := wire.NewReader(body)
	kind := r.U8()
	it.Seq = int64(r.U64())
	switch kind {
	case recSettle:
		r.End()
		settled = true
	case recEnqueue:
		it.Key = r.String(int(r.U32()))
		it.Payload = r.Rest()
	default:
		return Item{}, false, false
	}
	if r.Err() != nil {
		return Item{}, false, false
	}
	return it, settled, true
}

// encodeEnqueue builds the frame that journals one accepted item.
func encodeEnqueue(it Item) []byte {
	buf := framelog.NewFrame(13 + len(it.Key) + len(it.Payload))
	buf = append(buf, recEnqueue)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(it.Seq))
	buf = wire.AppendString32(buf, it.Key)
	return append(buf, it.Payload...)
}

// encodeSettle builds the frame that journals one settled (acked or
// dead-lettered) seq.
func encodeSettle(seq int64) []byte {
	buf := framelog.NewFrame(9)
	buf = append(buf, recSettle)
	return binary.LittleEndian.AppendUint64(buf, uint64(seq))
}
