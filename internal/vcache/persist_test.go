package vcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openCollect(t *testing.T, dir, genKey string, epoch uint64) (*PersistLog, map[string][]byte, int, int) {
	t.Helper()
	got := map[string][]byte{}
	p, restored, skipped, err := OpenPersist(dir, genKey, epoch, func(k string, v []byte) {
		got[k] = append([]byte(nil), v...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, got, restored, skipped
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, _, restored, _ := openCollect(t, dir, "model:abc", 0)
	if restored != 0 {
		t.Fatalf("fresh log restored %d entries", restored)
	}
	if err := p.AppendCurrent("k1", []byte("entry-one"), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendCurrent("k2", []byte{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, restored, skipped := openCollect(t, dir, "model:abc", 0)
	if restored != 2 || skipped != 0 {
		t.Fatalf("restored %d skipped %d, want 2/0", restored, skipped)
	}
	if string(got["k1"]) != "entry-one" {
		t.Fatalf("k1 = %q", got["k1"])
	}
	if v, ok := got["k2"]; !ok || len(v) != 0 {
		t.Fatalf("k2 = %q ok=%v", v, ok)
	}
}

func TestPersistGenKeyMismatchDiscards(t *testing.T) {
	dir := t.TempDir()
	p, _, _, _ := openCollect(t, dir, "model:old", 0)
	if err := p.AppendCurrent("k", []byte("stale"), 0); err != nil {
		t.Fatal(err)
	}
	p.Close()

	_, got, restored, _ := openCollect(t, dir, "model:new", 0)
	if restored != 0 || len(got) != 0 {
		t.Fatalf("stale-model snapshot replayed: restored=%d got=%v", restored, got)
	}

	// The mismatch rewrote the log under the new key: nothing old survives
	// even when reopened under the original key.
	_, got, restored, _ = openCollect(t, dir, "model:old", 0)
	if restored != 0 || len(got) != 0 {
		t.Fatal("discarded snapshot resurrected after re-keying")
	}
}

func TestPersistEpochGate(t *testing.T) {
	dir := t.TempDir()
	p, _, _, _ := openCollect(t, dir, "model:abc", 5)
	if err := p.AppendCurrent("stale", []byte("old-epoch"), 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendCurrent("fresh", []byte("cur-epoch"), 5); err != nil {
		t.Fatal(err)
	}
	appends := p.Counters().Appends
	if appends != 1 {
		t.Fatalf("appends = %d, want 1 (stale-epoch append must be dropped)", appends)
	}
	p.Close()

	_, got, _, _ := openCollect(t, dir, "model:abc", 5)
	if _, ok := got["stale"]; ok {
		t.Fatal("stale-epoch entry reached the log")
	}
	if string(got["fresh"]) != "cur-epoch" {
		t.Fatalf("fresh entry missing: %v", got)
	}
}

func TestPersistResetDropsEntries(t *testing.T) {
	dir := t.TempDir()
	p, _, _, _ := openCollect(t, dir, "model:v1", 0)
	if err := p.AppendCurrent("k", []byte("v1-entry"), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Reset("model:v2", 1); err != nil {
		t.Fatal(err)
	}
	// Post-reset appends carry the new epoch and land in the new log.
	if err := p.AppendCurrent("k2", []byte("v2-entry"), 1); err != nil {
		t.Fatal(err)
	}
	p.Close()

	_, got, restored, _ := openCollect(t, dir, "model:v2", 0)
	if restored != 1 || string(got["k2"]) != "v2-entry" {
		t.Fatalf("post-reset replay: restored=%d got=%v", restored, got)
	}
	if _, ok := got["k"]; ok {
		t.Fatal("pre-reset entry survived the reset")
	}
}

func TestPersistTornTailSkippedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	p, _, _, _ := openCollect(t, dir, "model:abc", 0)
	if err := p.AppendCurrent("good", []byte("intact"), 0); err != nil {
		t.Fatal(err)
	}
	p.Close()

	// Tear the log mid-record, as a crash during append would.
	path := filepath.Join(dir, persistFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2, got, restored, skipped := openCollect(t, dir, "model:abc", 0)
	if restored != 1 || skipped != 1 {
		t.Fatalf("restored=%d skipped=%d, want 1/1", restored, skipped)
	}
	if string(got["good"]) != "intact" {
		t.Fatalf("good prefix lost: %v", got)
	}
	// The torn tail was truncated away: appending then reopening must
	// yield both records cleanly.
	if err := p2.AppendCurrent("after", []byte("tear"), 0); err != nil {
		t.Fatal(err)
	}
	p2.Close()
	_, got, restored, skipped = openCollect(t, dir, "model:abc", 0)
	if restored != 2 || skipped != 0 || string(got["after"]) != "tear" {
		t.Fatalf("post-tear append: restored=%d skipped=%d got=%v", restored, skipped, got)
	}
}

func TestPersistCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	p, _, _, _ := openCollect(t, dir, "model:abc", 0)

	// live mimics the in-memory cache: the last value stored per key.
	live := map[string][]byte{}
	p.EnableCompaction(func(emit func(string, []byte)) {
		for k, v := range live {
			emit(k, v)
		}
	})

	// Re-store a 4-key working set far past the compaction floor — the
	// shape of a long-lived generation re-computing LRU-evicted keys.
	// Uncompacted this writes ~6.4 MiB; the bound keeps the file near the
	// 1 MiB floor.
	val := bytes.Repeat([]byte("x"), 64<<10)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i%4)
		live[key] = val
		if err := p.AppendCurrent(key, val, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := p.Counters()
	if c.Compactions == 0 {
		t.Fatal("log grew past the bound without compacting")
	}
	if c.CompactErrors != 0 {
		t.Fatalf("%d compactions failed", c.CompactErrors)
	}
	st, err := os.Stat(filepath.Join(dir, persistFile))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 2<<20 {
		t.Fatalf("log size %d not bounded by compaction", st.Size())
	}
	p.Close()

	// The compacted log still replays to exactly the live working set.
	_, got, _, skipped := openCollect(t, dir, "model:abc", 0)
	if skipped != 0 {
		t.Fatalf("compacted log has %d corrupt records", skipped)
	}
	if len(got) != len(live) {
		t.Fatalf("replayed %d distinct keys, want %d", len(got), len(live))
	}
	for k, v := range live {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %s replayed wrong after compaction", k)
		}
	}
}

func TestPersistCompactionSurvivesAppendsAfter(t *testing.T) {
	dir := t.TempDir()
	p, _, _, _ := openCollect(t, dir, "model:abc", 0)
	p.EnableCompaction(func(emit func(string, []byte)) {
		emit("live", []byte("kept"))
	})
	// Push past the floor to force one compaction, then append more: the
	// swapped descriptor must land post-compaction records on a clean
	// record boundary.
	val := bytes.Repeat([]byte("y"), 256<<10)
	for i := 0; i < 8; i++ {
		if err := p.AppendCurrent("churn", val, 0); err != nil {
			t.Fatal(err)
		}
	}
	if p.Counters().Compactions == 0 {
		t.Fatal("expected a compaction")
	}
	if err := p.AppendCurrent("after", []byte("tail"), 0); err != nil {
		t.Fatal(err)
	}
	p.Close()

	_, got, _, skipped := openCollect(t, dir, "model:abc", 0)
	if skipped != 0 {
		t.Fatalf("%d corrupt records after compaction + append", skipped)
	}
	if string(got["live"]) != "kept" {
		t.Fatal("compacted snapshot entry lost")
	}
	if string(got["after"]) != "tail" {
		t.Fatal("post-compaction append lost")
	}
}

func TestPersistCorruptHeaderStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, persistFile), []byte("garbage, no newline even"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, got, restored, _ := openCollect(t, dir, "model:abc", 0)
	if restored != 0 || len(got) != 0 {
		t.Fatalf("garbage log replayed: %v", got)
	}
	if err := p.AppendCurrent("k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	p.Close()
	_, got, restored, _ = openCollect(t, dir, "model:abc", 0)
	if restored != 1 || string(got["k"]) != "v" {
		t.Fatalf("fresh log after garbage unusable: %v", got)
	}
}

// TestDecodeRecordChecksTheBodyInHand: the key length a frame body declares
// is checked against the bytes present before anything is cut from it.
func TestDecodeRecordChecksTheBodyInHand(t *testing.T) {
	good := encodeRecord("digest", []byte("verdict"))[4:]
	lying := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(lying, 0xFFFFFFFF)
	for _, tc := range []struct {
		name     string
		body     []byte
		ok       bool
		key, val string
	}{
		{"entry", good, true, "digest", "verdict"},
		{"entry with an empty value", good[:4+len("digest")], true, "digest", ""},
		{"empty", nil, false, "", ""},
		{"key length cut short", good[:3], false, "", ""},
		{"key cut short", good[:4+2], false, "", ""},
		{"key length past the body", lying, false, "", ""},
	} {
		key, val, ok := decodeRecord(tc.body)
		if ok != tc.ok || key != tc.key || string(val) != tc.val {
			t.Errorf("%s: key=%q val=%q ok=%v, want %q %q %v", tc.name, key, val, ok, tc.key, tc.val, tc.ok)
		}
	}
}
