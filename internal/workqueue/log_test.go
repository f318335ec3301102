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
	lying := append([]byte{}, enq...)
	binary.LittleEndian.PutUint32(lying[9:], 0xFFFFFFFF)
	keyOnly := append([]byte{}, enq[:13+len("digest")]...)

	for _, tc := range []struct {
		name    string
		body    []byte
		ok      bool
		settled bool
		key     string
		payload string
	}{
		{"enqueue", enq, true, false, "digest", "apk"},
		{"settle", set, true, true, "", ""},
		{"enqueue with an empty payload", keyOnly, true, false, "digest", ""},
		{"empty", nil, false, false, "", ""},
		{"seq cut short", enq[:8], false, false, "", ""},
		{"enqueue without a key length", enq[:12], false, false, "", ""},
		{"key cut short", enq[:13+3], false, false, "", ""},
		{"key length past the body", lying, false, false, "", ""},
		{"settle with a trailing byte", append(append([]byte{}, set...), 0), false, false, "", ""},
		{"unknown kind", append([]byte{9}, set[1:]...), false, false, "", ""},
	} {
		it, settled, ok := decodeRecord(tc.body)
		if ok != tc.ok || (ok && settled != tc.settled) {
			t.Errorf("%s: ok=%v settled=%v, want %v/%v", tc.name, ok, settled, tc.ok, tc.settled)
			continue
		}
		if ok && (it.Seq != 7 || it.Key != tc.key || string(it.Payload) != tc.payload) {
			t.Errorf("%s: decoded %+v", tc.name, it)
		}
		if ok && !settled && it.Payload == nil {
			t.Errorf("%s: a replayed item lost its durable (non-nil) payload", tc.name)
		}
	}
}
