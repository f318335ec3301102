// Owner-level fault tests: the intake journal and the verdict-cache persist
// tier driven over the failing-filesystem shim. They live here, not beside
// the owners, because the shim reaches the log through framelog's
// unexported file interface; as an external test package this file can
// import both owners and still see the shim faults_test.go exports.
package framelog_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"apichecker/internal/framelog"
	"apichecker/internal/vcache"
	"apichecker/internal/workqueue"
)

func openQueue(t *testing.T, dir string) (*workqueue.Queue, []workqueue.Item) {
	t.Helper()
	q, replayed, err := workqueue.Open(workqueue.Config{Capacity: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q, replayed
}

func enqueue(q *workqueue.Queue, key string) error {
	if !q.TryAcquire() {
		return errors.New("queue full")
	}
	_, err := q.Enqueue(workqueue.Item{Key: key, Payload: []byte("apk-" + key)})
	return err
}

func keys(items []workqueue.Item) string {
	s := ""
	for _, it := range items {
		s += it.Key
	}
	return s
}

// TestJournalFailedAppendKeepsLaterItems: the enqueue whose journal write
// fails is refused, and the submissions accepted after it survive a
// restart. (Before framelog cut a failed append back, the half-written
// record of B hid C and D from the next replay: it returned A alone with
// ReplaySkipped = 1.)
func TestJournalFailedAppendKeepsLaterItems(t *testing.T) {
	x := framelog.InstallFaults(t)
	dir := t.TempDir()
	q, _ := openQueue(t, dir)
	if err := enqueue(q, "A"); err != nil {
		t.Fatal(err)
	}
	x.FailWrite(1, 9) // a short write: part of B's record reaches the file
	if err := enqueue(q, "B"); !errors.Is(err, framelog.ErrInjected) {
		t.Fatalf("enqueue over a failing journal write = %v, want the write's error", err)
	}
	for _, k := range []string{"C", "D"} {
		if err := enqueue(q, k); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.Stats(); st.Enqueued != 3 || st.Depth != 3 {
		t.Fatalf("stats = %+v, want the refused item nowhere", st)
	}
	q.Close()

	q2, replayed := openQueue(t, dir)
	if got := keys(replayed); got != "ACD" {
		t.Fatalf("replayed %q, want ACD", got)
	}
	if got := q2.Stats().ReplaySkipped; got != 0 {
		t.Fatalf("ReplaySkipped = %d, want 0", got)
	}
}

// TestJournalDownRefusesWork: if the failed append cannot be cut back the
// journal can no longer promise a replay, so the queue must refuse durable
// work rather than accept what it did not journal.
func TestJournalDownRefusesWork(t *testing.T) {
	x := framelog.InstallFaults(t)
	dir := t.TempDir()
	q, _ := openQueue(t, dir)
	if err := enqueue(q, "A"); err != nil {
		t.Fatal(err)
	}
	x.FailWrite(1, 9)
	x.FailTruncate = true
	if err := enqueue(q, "B"); err == nil {
		t.Fatal("enqueue over a failing write succeeded")
	}
	x.FailTruncate = false
	if err := enqueue(q, "C"); err == nil {
		t.Fatal("a down journal accepted an enqueue")
	}
	q.Close()
	q2, replayed := openQueue(t, dir)
	if got := keys(replayed); got != "A" || q2.Stats().ReplaySkipped != 1 {
		t.Fatalf("replayed %q, skipped %d; want A and the stranded half record skipped", got, q2.Stats().ReplaySkipped)
	}
}

// TestJournalSettleFailureIsCounted: a settle record that cannot be
// written does not fail the ack, but it shows in Stats, and the item
// replays.
func TestJournalSettleFailureIsCounted(t *testing.T) {
	x := framelog.InstallFaults(t)
	dir := t.TempDir()
	q, _ := openQueue(t, dir)
	if err := enqueue(q, "A"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l, err := q.Claim(ctx)
	if err != nil {
		t.Fatal(err)
	}
	x.FailWrite(1, 0)
	if err := l.Ack(); err != nil {
		t.Fatalf("ack = %v; a journal failure must not fail the ack", err)
	}
	if st := q.Stats(); st.JournalErrors != 1 || st.Acked != 1 {
		t.Fatalf("stats = %+v, want JournalErrors 1", st)
	}
	q.Close()
	q2, replayed := openQueue(t, dir)
	if keys(replayed) != "A" || q2.Stats().ReplaySkipped != 0 {
		t.Fatalf("replayed %q, skipped %d; want the unsettled A on a clean log", keys(replayed), q2.Stats().ReplaySkipped)
	}
}

// TestOpenErrorKeepsTheFile: a journal or persist log that cannot be
// opened is an error from Open, not a reason to start an empty one over a
// file full of accepted submissions. (Before, any open error — EMFILE,
// EACCES, EIO — was met by writing a fresh header over the journal.)
func TestOpenErrorKeepsTheFile(t *testing.T) {
	x := framelog.InstallFaults(t)

	qdir := t.TempDir()
	q, _ := openQueue(t, qdir)
	for _, k := range []string{"A", "B"} {
		if err := enqueue(q, k); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()

	pdir := t.TempDir()
	p, _, _, err := vcache.OpenPersist(pdir, "model:abc", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AppendCurrent("k", []byte("verdict"), 0); err != nil {
		t.Fatal(err)
	}
	p.Close()

	journal := filepath.Join(qdir, "workqueue.log")
	persist := filepath.Join(pdir, "vcache.log")
	before := map[string][]byte{}
	for _, path := range []string{journal, persist} {
		if before[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}

	x.FailOpen = true
	if _, _, err := workqueue.Open(workqueue.Config{Dir: qdir}); !errors.Is(err, framelog.ErrInjected) {
		t.Fatalf("workqueue.Open over a failing open = %v, want its error", err)
	}
	if _, _, _, err := vcache.OpenPersist(pdir, "model:abc", 0, nil); !errors.Is(err, framelog.ErrInjected) {
		t.Fatalf("vcache.OpenPersist over a failing open = %v, want its error", err)
	}
	x.FailOpen = false

	for path, want := range before {
		if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, want) {
			t.Fatalf("%s changed under a failed open (err %v)", path, err)
		}
	}
	if _, replayed := openQueue(t, qdir); keys(replayed) != "AB" {
		t.Fatalf("journal replayed %q after the fault cleared, want AB", keys(replayed))
	}
	p, restored, _, err := vcache.OpenPersist(pdir, "model:abc", 0, nil)
	if err != nil || restored != 1 {
		t.Fatalf("persist log restored %d (err %v) after the fault cleared, want 1", restored, err)
	}
	p.Close()
}
