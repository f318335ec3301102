package framelog_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"apichecker/internal/framelog"
	"apichecker/internal/vcache"
	"apichecker/internal/workqueue"
)

// realLogs returns the bytes of a journal and a persist log as their
// owners write them: a compaction's mark, enqueues, a settle; entries with
// and without a value.
func realLogs(t testing.TB) (journal, persist []byte) {
	t.Helper()
	qdir, pdir := t.TempDir(), t.TempDir()
	q, _, err := workqueue.Open(workqueue.Config{Capacity: 8, Dir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	// Settled traffic until a settle compacts the journal, which then
	// opens with a mark.
	qlog := filepath.Join(qdir, "workqueue.log")
	for grown := int64(0); ; {
		if !q.TryAcquire() {
			t.Fatal("queue full")
		}
		if _, err := q.Enqueue(workqueue.Item{Payload: make([]byte, 8<<10)}); err != nil {
			t.Fatal(err)
		}
		if err := settleNext(q); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(qlog)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < grown {
			break
		}
		if fi.Size() > 2<<20 {
			t.Fatalf("journal never compacted: %d bytes", fi.Size())
		}
		grown = fi.Size()
	}
	for _, k := range []string{"app-1", "app-2", "app-3"} {
		if err := enqueue(q, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := settleNext(q); err != nil {
		t.Fatal(err)
	}
	q.Close()
	p, _, _, err := vcache.OpenPersist(pdir, "model:abc", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"digest-1", "verdict-one"}, {"digest-2", ""}} {
		if err := p.AppendCurrent(kv[0], []byte(kv[1]), 0); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if journal, err = os.ReadFile(qlog); err != nil {
		t.Fatal(err)
	}
	if _, bodies, _ := referenceFrames(journal); len(bodies) == 0 || bodies[0][0] != 3 {
		t.Fatal("the compacted journal does not open with a mark")
	}
	if persist, err = os.ReadFile(filepath.Join(pdir, "vcache.log")); err != nil {
		t.Fatal(err)
	}
	return journal, persist
}

// settleNext claims q's next item and acks it.
func settleNext(q *workqueue.Queue) error {
	l, err := q.Claim(context.Background())
	if err != nil {
		return err
	}
	return l.Ack()
}

// referenceFrames is the frame format read the slow, obvious way over the
// whole image: the bodies of the intact frames after the first line, up to
// the first bad one, and whether the image ended cleanly on a boundary.
func referenceFrames(image []byte) (header string, bodies [][]byte, clean bool) {
	nl := bytes.IndexByte(image, '\n')
	if nl < 0 {
		return "", nil, false
	}
	header, rest := string(image[:nl]), image[nl+1:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return header, bodies, false
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		if n == 0 || n > uint64(len(rest)-8) {
			return header, bodies, false
		}
		body := rest[4 : 4+n]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return header, bodies, false
		}
		bodies = append(bodies, body)
		rest = rest[8+n:]
	}
	return header, bodies, true
}

// replayImage writes image as a log file, opens it under the header its
// first line carries and returns what replay handed out.
func replayImage(t testing.TB, dir string, image []byte, header string) (bodies [][]byte, skipped int, allocated uint64) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "fuzz.log"), image, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, skipped, err := framelog.Open(dir, "fuzz.log", header, func(b []byte) bool {
		bodies = append(bodies, b)
		return true
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return bodies, skipped, after.TotalAlloc - before.TotalAlloc
}

// FuzzReplay: for any file image, replay does not panic, hands out exactly
// the frames the reference reader finds before the first bad one (so never
// anything that was not written, and never anything past a bad frame),
// allocates in proportion to the file and not to what a length word
// claims, and leaves a file that reopens with nothing skipped.
func FuzzReplay(f *testing.F) {
	journal, persist := realLogs(f)
	for _, good := range [][]byte{journal, persist} {
		f.Add(good)
		f.Add(good[:len(good)-5])
		flipped := bytes.Clone(good)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
		lying := bytes.Clone(good)
		binary.LittleEndian.PutUint32(lying[bytes.IndexByte(lying, '\n')+1:], 1<<31)
		f.Add(lying)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		header, want, clean := referenceFrames(image)
		if header == "" {
			t.Skip("no header line to open the image under")
		}
		dir := t.TempDir()
		got, skipped, allocated := replayImage(t, dir, image, header)
		if len(got) != len(want) {
			t.Fatalf("replayed %d frames, reference reads %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs from the reference", i)
			}
		}
		if (skipped == 0) != clean || skipped > 1 {
			t.Fatalf("skipped = %d on an image that ends clean = %v", skipped, clean)
		}
		// The replay buffer is at most the file's size, the bodies sum to at
		// most the file's size, and the rest is fixed: TotalAlloc is
		// process-wide, hence the slack.
		if bound := uint64(256<<10 + 4*len(image)); allocated > bound {
			t.Fatalf("replay of a %d-byte file allocated %d bytes, bound %d", len(image), allocated, bound)
		}
		repaired, err := os.ReadFile(filepath.Join(dir, "fuzz.log"))
		if err != nil {
			t.Fatal(err)
		}
		again, skipped, _ := replayImage(t, dir, repaired, header)
		if len(again) != len(want) || skipped != 0 {
			t.Fatalf("after repair: %d frames and %d skipped, want %d and 0", len(again), skipped, len(want))
		}
	})
}

// TestEveryCutAndFlipReplaysAPrefix: cut a real journal and a real persist
// log at every length and flip every byte in turn; whatever replays is a
// prefix of the frames the owner wrote.
func TestEveryCutAndFlipReplaysAPrefix(t *testing.T) {
	journal, persist := realLogs(t)
	for name, good := range map[string][]byte{"journal": journal, "persist": persist} {
		header, written, _ := referenceFrames(good)
		dir := t.TempDir()
		check := func(what string, at int, image []byte) {
			got, _, _ := replayImage(t, dir, image, header)
			if len(got) > len(written) {
				t.Fatalf("%s %s at %d: replayed %d frames of %d written", name, what, at, len(got), len(written))
			}
			for i := range got {
				if !bytes.Equal(got[i], written[i]) {
					t.Fatalf("%s %s at %d: frame %d is not the one written", name, what, at, i)
				}
			}
		}
		for at := range good {
			check("cut", at, good[:at])
			flipped := bytes.Clone(good)
			flipped[at] ^= 0x01
			check("flip", at, flipped)
		}
	}
}
