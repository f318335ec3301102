// Durable intake journal: enqueue and settle records in a framelog, so a
// killed serving node replays every submission it accepted but never
// acknowledged. framelog owns the file (header, frames, CRC, torn-tail
// repair, compaction); this file owns what a frame's body means and how a
// log folds into the items a restart must re-vet.
//
// Three bodies (little-endian); the payload is the rest of the frame:
//
//	enqueue: u8 1 | u64 seq | u32 keyLen | key | payload
//	settle:  u8 2 | u64 seq
//	mark:    u8 3 | u64 seq
//
// A settle for an unknown seq is ignored (its enqueue record was dropped
// by a compaction). A compaction writes a mark first: the highest seq the
// journal had recorded, which the records it drops no longer show.
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
const logMagic = "workqueuelog/3"

// Record type tags.
const (
	recEnqueue = 1
	recSettle  = 2
	recMark    = 3
)

// openLog opens (or creates) the journal in dir and replays it: items
// returns every enqueued-but-unsettled submission in seq order, maxSeq the
// highest seq the log has ever recorded (settled or not, and through its
// marks across compactions, so the caller can advance its seq source past
// numbers a previous life consumed), and skipped the records dropped as
// torn or corrupt.
func openLog(dir string) (l *framelog.Log, items []Item, maxSeq int64, skipped int, err error) {
	live := make(map[int64]Item)
	l, skipped, err = framelog.Open(dir, logFile, logMagic, func(body []byte) bool {
		it, kind, ok := decodeRecord(body)
		if !ok {
			return false
		}
		maxSeq = max(maxSeq, it.Seq)
		switch kind {
		case recSettle:
			delete(live, it.Seq)
		case recEnqueue:
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

// decodeRecord parses one frame body into its kind and, for an enqueue,
// the item; a settle or mark fills only the seq. ok is false for a body no
// encoder here wrote: an unknown kind, a settle or mark of the wrong size,
// a key length the body cannot back. The payload aliases body.
func decodeRecord(body []byte) (it Item, kind byte, ok bool) {
	r := wire.NewReader(body)
	kind = r.U8()
	it.Seq = int64(r.U64())
	switch kind {
	case recSettle, recMark:
		r.End()
	case recEnqueue:
		it.Key = r.String(int(r.U32()))
		it.Payload = r.Rest()
	default:
		return Item{}, 0, false
	}
	if r.Err() != nil {
		return Item{}, 0, false
	}
	return it, kind, true
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
func encodeSettle(seq int64) []byte { return encodeSeq(recSettle, seq) }

// encodeMark builds the frame that opens a compacted journal: the highest
// seq the journal has recorded.
func encodeMark(seq int64) []byte { return encodeSeq(recMark, seq) }

// encodeSeq builds a frame whose body is kind and seq alone.
func encodeSeq(kind byte, seq int64) []byte {
	buf := framelog.NewFrame(9)
	buf = append(buf, kind)
	return binary.LittleEndian.AppendUint64(buf, uint64(seq))
}
