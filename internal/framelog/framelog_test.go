package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

const (
	testName   = "test.log"
	testHeader = "testlog/1 some-key"
)

func frame(body string) []byte { return append(NewFrame(len(body)), body...) }

// open opens the test log in dir and returns the bodies it replayed.
func open(t *testing.T, dir string) (*Log, []string, int) {
	t.Helper()
	var got []string
	l, skipped, err := Open(dir, testName, testHeader, func(b []byte) bool {
		got = append(got, string(b))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, got, skipped
}

// write builds a closed log holding bodies and returns its path and bytes.
func write(t *testing.T, dir string, bodies ...string) (string, []byte) {
	t.Helper()
	l, _, _ := open(t, dir)
	for _, b := range bodies {
		if err := l.Append(frame(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, testName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestRoundTripAndLayout(t *testing.T) {
	dir := t.TempDir()
	_, data := write(t, dir, "one", "two-two")
	want := []byte(testHeader + "\n")
	for _, b := range []string{"one", "two-two"} {
		want = binary.LittleEndian.AppendUint32(want, uint32(len(b)))
		want = append(want, b...)
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE([]byte(b)))
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("file layout:\n got %q\nwant %q", data, want)
	}
	l, got, skipped := open(t, dir)
	if !slices.Equal(got, []string{"one", "two-two"}) || skipped != 0 {
		t.Fatalf("replayed %q skipped %d", got, skipped)
	}
	if err := l.Append(NewFrame(0)); err == nil {
		t.Fatal("an empty body was appended; replay would read it as a torn tail")
	}
	l.Close()
	if err := l.Append(frame("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

// TestReplayRepairsBadTail: whatever is wrong with the file past its good
// prefix, replay keeps the prefix, reports one skipped tail, cuts the file
// back, and the next append lands on a frame boundary.
func TestReplayRepairsBadTail(t *testing.T) {
	bodies := []string{"alpha", "bravo-bravo", "charlie"}
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
		want   int // frames that survive
	}{
		{"torn last frame", func(b []byte) []byte { return b[:len(b)-3] }, 2},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) }, 3},
		{"garbage shorter than a frame", func(b []byte) []byte { return append(b, 7) }, 3},
		{"zero-filled tail", func(b []byte) []byte { return append(b, make([]byte, 64)...) }, 3},
		{"flipped byte in the second body", func(b []byte) []byte {
			b[len(testHeader)+1+8+len(bodies[0])+4+2] ^= 0x40
			return b
		}, 1},
		{"length past the file in the first frame", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(testHeader)+1:], 1<<30)
			return b
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, good := write(t, dir, bodies...)
			if err := os.WriteFile(path, tc.mutate(good), 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, skipped := open(t, dir)
			if !slices.Equal(got, bodies[:tc.want]) {
				t.Fatalf("replayed %q, want %q", got, bodies[:tc.want])
			}
			if skipped != 1 {
				t.Fatalf("skipped = %d, want 1", skipped)
			}
			if err := l.Append(frame("after")); err != nil {
				t.Fatal(err)
			}
			l.Close()
			_, got, skipped = open(t, dir)
			if want := append(append([]string{}, bodies[:tc.want]...), "after"); !slices.Equal(got, want) || skipped != 0 {
				t.Fatalf("after repair: replayed %q skipped %d, want %q / 0", got, skipped, want)
			}
		})
	}
}

// TestOwnerRejectedFrameEndsReplay: a body that passes its CRC but that
// the owner cannot decode is a bad frame like any other.
func TestOwnerRejectedFrameEndsReplay(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "ok-1", "BAD", "ok-2")
	var got []string
	l, skipped, err := Open(dir, testName, testHeader, func(b []byte) bool {
		if string(b) == "BAD" {
			return false
		}
		got = append(got, string(b))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if !slices.Equal(got, []string{"ok-1"}) || skipped != 1 {
		t.Fatalf("replayed %q skipped %d, want [ok-1] / 1", got, skipped)
	}
	if _, got, skipped := open(t, dir); len(got) != 1 || skipped != 0 {
		t.Fatalf("after repair: replayed %q skipped %d", got, skipped)
	}
}

// TestUnrecognisedHeaderStartsFresh: a file that is not this owner's — an
// older layout, another generation key, garbage — is replaced, never read.
func TestUnrecognisedHeaderStartsFresh(t *testing.T) {
	for name, content := range map[string]string{
		"garbage without a newline": "garbage, no newline even",
		"empty file":                "",
		"older layout":              "testlog/0 some-key\n" + string(frame("x")),
		"another key":               "testlog/1 other-key\n",
		"key that is a prefix":      testHeader + "-longer\n",
		"header cut short":          testHeader[:5],
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, testName), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, skipped := open(t, dir)
			if len(got) != 0 || skipped != 0 {
				t.Fatalf("replayed %q skipped %d from a file that is not ours", got, skipped)
			}
			if err := l.Append(frame("fresh")); err != nil {
				t.Fatal(err)
			}
			l.Close()
			if _, got, _ := open(t, dir); !slices.Equal(got, []string{"fresh"}) {
				t.Fatalf("fresh log replayed %q", got)
			}
		})
	}
}

// TestCompactionBoundsSizeAndAppendsSurvive: a log whose live set stays
// small stays near the floor however much is appended, and frames appended
// after a rewrite land in the rewritten file on a frame boundary.
func TestCompactionBoundsSizeAndAppendsSurvive(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := open(t, dir)
	churn := string(bytes.Repeat([]byte("x"), 64<<10))
	emitted := 0
	for i := 0; i < 100; i++ { // ~6.4 MiB appended
		if err := l.Append(frame(churn)); err != nil {
			t.Fatal(err)
		}
		l.Compact(func(add func([]byte)) {
			emitted++
			add(frame("live-1"))
			add(frame("live-2"))
		})
	}
	compactions, failed := l.Counters()
	if compactions == 0 || failed != 0 || int(compactions) != emitted {
		t.Fatalf("compactions = %d (emit ran %d times), failed = %d", compactions, emitted, failed)
	}
	if err := l.Append(frame("after")); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, testName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 2*compactFloor {
		t.Fatalf("log is %d bytes after compaction, want under %d", st.Size(), 2*compactFloor)
	}
	if st.Size() != l.size {
		t.Fatalf("tracked size %d, file is %d", l.size, st.Size())
	}
	l.Close()
	_, got, skipped := open(t, dir)
	if skipped != 0 || len(got) < 3 || got[0] != "live-1" || got[1] != "live-2" || got[len(got)-1] != "after" {
		t.Fatalf("replayed %d frames (skipped %d), want live-1, live-2, churn..., after", len(got), skipped)
	}
	if _, err := os.Stat(filepath.Join(dir, testName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestResetReplacesHeaderAndFrames(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := open(t, dir)
	if err := l.Append(frame("old")); err != nil {
		t.Fatal(err)
	}
	const next = "testlog/1 next-key"
	if err := l.Reset(next); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(frame("new")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var got []string
	l2, _, err := Open(dir, testName, next, func(b []byte) bool { got = append(got, string(b)); return true })
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if !slices.Equal(got, []string{"new"}) {
		t.Fatalf("after reset replayed %q, want [new]", got)
	}
}

// TestAppendFailureKeepsLaterFrames: a failed or short write must not
// leave half a frame in the middle of the file for later frames to land
// behind.
func TestAppendFailureKeepsLaterFrames(t *testing.T) {
	for _, after := range []int{0, 1, 6, 11} { // nothing, part of the length word, part of the body, all but the last CRC byte
		t.Run(fmt.Sprintf("after %d bytes", after), func(t *testing.T) {
			x := InstallFaults(t)
			dir := t.TempDir()
			l, _, _ := open(t, dir)
			if err := l.Append(frame("A")); err != nil {
				t.Fatal(err)
			}
			x.FailWrite(1, after)
			if err := l.Append(frame("BBBB")); !errors.Is(err, ErrInjected) {
				t.Fatalf("append over a failing write = %v, want the write's error", err)
			}
			for _, b := range []string{"C", "D"} {
				if err := l.Append(frame(b)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			_, got, skipped := open(t, dir)
			if !slices.Equal(got, []string{"A", "C", "D"}) || skipped != 0 {
				t.Fatalf("replayed %q skipped %d, want [A C D] / 0", got, skipped)
			}
		})
	}
}

// TestFailedCutTakesTheLogDown: when the repair after a failed append
// fails too the file no longer ends on a frame boundary, so the log must
// refuse appends rather than strand them; a rewrite makes it whole.
func TestFailedCutTakesTheLogDown(t *testing.T) {
	x := InstallFaults(t)
	dir := t.TempDir()
	l, _, _ := open(t, dir)
	if err := l.Append(frame("A")); err != nil {
		t.Fatal(err)
	}
	x.FailWrite(1, 5)
	x.FailTruncate = true
	if err := l.Append(frame("BBBB")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append = %v", err)
	}
	x.FailTruncate = false
	if err := l.Append(frame("C")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append to a down log = %v, want the error that took it down", err)
	}
	if err := l.Reset(testHeader); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(frame("D")); err != nil {
		t.Fatalf("append after a rewrite: %v", err)
	}
	l.Close()
	if _, got, skipped := open(t, dir); !slices.Equal(got, []string{"D"}) || skipped != 0 {
		t.Fatalf("replayed %q skipped %d, want [D] / 0", got, skipped)
	}
}

// TestFailedCompactionKeepsTheOldLog: a rewrite that cannot be written is
// counted and abandoned; the old file, its frames and its descriptor stay.
func TestFailedCompactionKeepsTheOldLog(t *testing.T) {
	x := InstallFaults(t)
	dir := t.TempDir()
	l, _, _ := open(t, dir)
	big := string(bytes.Repeat([]byte("y"), compactFloor))
	if err := l.Append(frame(big)); err != nil {
		t.Fatal(err)
	}
	x.FailWrite(1, 3) // the rewrite's first flush
	tried := 0
	l.Compact(func(add func([]byte)) { tried++; add(frame("live")) })
	if c, failed := l.Counters(); tried != 1 || c != 0 || failed != 1 {
		t.Fatalf("emit ran %d times, compactions %d, failed %d; want 1, 0, 1", tried, c, failed)
	}
	// Backed off: not tried again on the very next append.
	if err := l.Append(frame("tail")); err != nil {
		t.Fatal(err)
	}
	l.Compact(func(add func([]byte)) { tried++ })
	if tried != 1 {
		t.Fatal("a failed compaction was retried at once")
	}
	l.Close()
	if _, got, skipped := open(t, dir); len(got) != 2 || got[0] != big || got[1] != "tail" || skipped != 0 {
		t.Fatalf("replayed %d frames, skipped %d; want the two appended", len(got), skipped)
	}
	if _, err := os.Stat(filepath.Join(dir, testName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestOpenErrorIsReturnedNotRepaired: only "no such file" and "not my
// header" may replace the file; a file that cannot be opened or repaired
// is an error and stays as it is.
func TestOpenErrorIsReturnedNotRepaired(t *testing.T) {
	dir := t.TempDir()
	path, good := write(t, dir, "kept-1", "kept-2")
	each := func([]byte) bool { return true }

	x := InstallFaults(t)
	x.FailOpen = true
	if _, _, err := Open(dir, testName, testHeader, each); !errors.Is(err, ErrInjected) {
		t.Fatalf("open over a failing open = %v, want its error", err)
	}
	x.FailOpen = false

	x.FailRead = true
	if _, _, err := Open(dir, testName, testHeader, each); !errors.Is(err, ErrInjected) {
		t.Fatalf("open over a failing read = %v, want its error", err)
	}
	x.FailRead = false
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, good) {
		t.Fatalf("the file changed under failed opens (err %v)", err)
	}

	torn := append(append([]byte{}, good...), 1, 2, 3)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	x.FailTruncate = true
	if _, _, err := Open(dir, testName, testHeader, each); !errors.Is(err, ErrInjected) {
		t.Fatalf("open over a failing repair = %v, want its error", err)
	}
	x.FailTruncate = false

	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, torn) {
		t.Fatalf("the file changed under failed opens (err %v)", err)
	}
	if _, got, skipped := open(t, dir); !slices.Equal(got, []string{"kept-1", "kept-2"}) || skipped != 1 {
		t.Fatalf("replayed %q skipped %d", got, skipped)
	}
}

// TestLyingLengthAllocatesNothing: a frame's declared length is checked
// against the bytes left in the file before anything is sized from it.
func TestLyingLengthAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	path, good := write(t, dir, "honest")
	for _, declared := range []uint32{1 << 20, 1 << 30, 1<<32 - 1} {
		lying := binary.LittleEndian.AppendUint32(append([]byte{}, good...), declared)
		lying = append(lying, "twelve bytes"...)
		// TotalAlloc is process-wide, so another goroutine's allocation can
		// land inside the window: the smallest of a few readings is ours.
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			if err := os.WriteFile(path, lying, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			l, skipped, err := Open(dir, testName, testHeader, func([]byte) bool { return true })
			runtime.ReadMemStats(&after)
			if err != nil || skipped != 1 {
				t.Fatalf("declared %d: skipped %d, err %v", declared, skipped, err)
			}
			l.Close()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 4<<10 {
			t.Errorf("declared %d: replay allocated %d bytes, want < 4 KiB", declared, least)
		}
	}
}
