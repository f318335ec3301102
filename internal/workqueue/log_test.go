package workqueue

import (
	"encoding/binary"
	"testing"
)

// TestDecodeRecordChecksTheBodyInHand: a frame body that passed its CRC
// can still be one no encoder here wrote; every length is checked against
// the bytes present, and nothing is sized from a declared one.
func TestDecodeRecordChecksTheBodyInHand(t *testing.T) {
	enq := encodeEnqueue(Item{Seq: 7, Key: "digest", Payload: []byte("apk")})[4:]
	set := encodeSettle(7)[4:]
	mark := encodeMark(7)[4:]
	lying := append([]byte{}, enq...)
	binary.LittleEndian.PutUint32(lying[9:], 0xFFFFFFFF)
	keyOnly := append([]byte{}, enq[:13+len("digest")]...)

	for _, tc := range []struct {
		name    string
		body    []byte
		ok      bool
		kind    byte
		key     string
		payload string
	}{
		{"enqueue", enq, true, recEnqueue, "digest", "apk"},
		{"settle", set, true, recSettle, "", ""},
		{"mark", mark, true, recMark, "", ""},
		{"enqueue with an empty payload", keyOnly, true, recEnqueue, "digest", ""},
		{"empty", nil, false, 0, "", ""},
		{"seq cut short", enq[:8], false, 0, "", ""},
		{"enqueue without a key length", enq[:12], false, 0, "", ""},
		{"key cut short", enq[:13+3], false, 0, "", ""},
		{"key length past the body", lying, false, 0, "", ""},
		{"settle with a trailing byte", append(append([]byte{}, set...), 0), false, 0, "", ""},
		{"mark with a trailing byte", append(append([]byte{}, mark...), 0), false, 0, "", ""},
		{"mark cut short", mark[:8], false, 0, "", ""},
		{"unknown kind", append([]byte{9}, set[1:]...), false, 0, "", ""},
	} {
		it, kind, ok := decodeRecord(tc.body)
		if ok != tc.ok || (ok && kind != tc.kind) {
			t.Errorf("%s: ok=%v kind=%d, want %v/%d", tc.name, ok, kind, tc.ok, tc.kind)
			continue
		}
		if ok && (it.Seq != 7 || it.Key != tc.key || string(it.Payload) != tc.payload) {
			t.Errorf("%s: decoded %+v", tc.name, it)
		}
		if ok && kind == recEnqueue && it.Payload == nil {
			t.Errorf("%s: a replayed item lost its durable (non-nil) payload", tc.name)
		}
	}
}
