// Package framelog is the one durable append log under the intake journal
// (workqueue) and the verdict-cache warm-start tier (vcache). It owns the
// file discipline both need and nothing of what their records mean:
//
//	header line | frame | frame | ...
//	frame: u32 len | body | u32 crc32(IEEE, body)      (little-endian)
//
// The header is only ever written with the whole file, by temp file +
// rename, so it is never partially visible. Frames are appended one
// write(2) each on an O_APPEND descriptor, so a crash tears at most the
// last one. Open replays the good prefix and cuts the file back to it; a
// failed append is cut back the same way, at once. Once the file outgrows
// a multiple of its last rewritten size the owner's live set replaces it,
// again by temp file + rename, and the append descriptor moves to the new
// file.
//
// A Log has no lock: each owner already serialises every call.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// A log is rewritten to its owner's live frames once it grows past
// compactFactor times its size after the last rewrite (or at open);
// compactFloor keeps small logs from churning. Every append adds a frame
// and nothing erases one, so without this a long-lived log would accrete
// unbounded disk and ever-slower replay.
const (
	compactFactor = 4
	compactFloor  = 1 << 20
)

// frameOverhead is the length word plus the CRC word around a body.
const frameOverhead = 8

// file is what a Log needs of an *os.File. It exists so tests can
// substitute one whose writes, truncates or opens fail.
type file interface {
	io.Reader
	io.Writer
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Close() error
}

// openFile opens every file a Log touches. Only tests replace it.
var openFile = func(name string, flag int, perm fs.FileMode) (file, error) {
	return os.OpenFile(name, flag, perm)
}

// Log is an open framed log. Construct with Open.
type Log struct {
	path, header string
	f            file

	// size is the file's length, always a frame boundary; lastCompact its
	// length after the last rewrite (or at open).
	size, lastCompact int64

	// down, once set, fails every append: the log is closed, or a failed
	// append could not be cut back and the file no longer ends on a frame
	// boundary. A successful rewrite clears the latter.
	down error

	compactions, compactErrors uint64
}

// ErrClosed is what Append reports after Close.
var ErrClosed = errors.New("framelog: log closed")

// errNotMine marks a file whose first line is not the expected header.
var errNotMine = errors.New("framelog: unrecognised header")

// Open opens dir/name, creating dir and the file as needed, and replays
// it: each receives every intact frame's body in append order and may keep
// the slice. Replay stops at the first frame that is torn, fails its CRC,
// declares more bytes than the file has left, or that each rejects by
// returning false; that frame and everything after it is cut off the file
// and reported as skipped = 1 (past a bad frame no boundary can be
// trusted, so the tail counts as one).
//
// A missing file, or one whose first line is not header, is replaced by an
// empty log. Any other failure — the open itself, a read, the repairing
// truncate — is returned and leaves the file as it was.
func Open(dir, name, header string, each func(body []byte) bool) (l *Log, skipped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("framelog: %w", err)
	}
	l = &Log{path: filepath.Join(dir, name), header: header}
	f, err := openFile(l.path, os.O_RDWR|os.O_APPEND, 0)
	if err == nil {
		l.size, skipped, err = replay(f, header, each)
		if err == nil && skipped > 0 {
			// Later appends must land on a frame boundary, not extend the
			// torn frame.
			err = f.Truncate(l.size)
		}
		if err != nil {
			f.Close()
		} else {
			l.f = f
		}
	}
	switch {
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, errNotMine):
		if err := l.rewrite(header, nil); err != nil {
			return nil, 0, err
		}
	case err != nil:
		return nil, 0, fmt.Errorf("framelog: open %s: %w", l.path, err)
	}
	l.lastCompact = l.size
	return l, skipped, nil
}

// replay reads the header and every intact frame from f. good is the
// length of the prefix they occupy.
func replay(f file, header string, each func(body []byte) bool) (good int64, skipped int, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := st.Size()
	r := bufio.NewReaderSize(f, int(min(size, 1<<20)))
	head := make([]byte, len(header)+1)
	if size < int64(len(head)) {
		return 0, 0, errNotMine
	}
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, 0, err
	}
	if string(head) != header+"\n" {
		return 0, 0, errNotMine
	}
	good = int64(len(head))
	for good < size {
		body, err := readFrame(r, size-good)
		if err != nil {
			return 0, 0, err
		}
		if body == nil || !each(body) {
			return good, 1, nil
		}
		good += int64(len(body)) + frameOverhead
	}
	return good, 0, nil
}

// readFrame reads one frame of a file with remain bytes left. A nil body
// with a nil error is a bad frame; an error is a failed read. The declared
// length is checked against remain before anything is sized from it, and a
// zero length is bad too: no owner writes an empty body, and a crash can
// leave a zero-filled tail.
func readFrame(r *bufio.Reader, remain int64) ([]byte, error) {
	if remain < frameOverhead {
		return nil, nil
	}
	word, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(word))
	if n == 0 || n > remain-frameOverhead {
		return nil, nil
	}
	r.Discard(4) // cannot fail: the four bytes were just peeked
	buf := make([]byte, n+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf[:n]) != binary.LittleEndian.Uint32(buf[n:]) {
		return nil, nil
	}
	return buf[:n:n], nil
}

// NewFrame starts a frame for a body of n bytes: append the body to the
// returned slice and hand it to Append (or to the add of a Compact). Building
// the body in place keeps an append to one buffer and one write.
func NewFrame(n int) []byte {
	return make([]byte, 4, n+frameOverhead)
}

// ReuseFrame is NewFrame in buf's storage: it allocates only when buf
// cannot hold the frame, so an owner that keeps one buffer across Appends
// builds every frame in place. Append and Compact keep no frame.
func ReuseFrame(buf []byte, n int) []byte {
	if cap(buf) < n+frameOverhead {
		return NewFrame(n)
	}
	return buf[:4]
}

// seal fills in the frame's length word and appends its CRC.
func seal(frame []byte) []byte {
	body := frame[4:]
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
}

// Append writes one frame built on NewFrame. If the write fails or is
// short the file is cut back to the last frame boundary, so the frames
// appended after it are not stranded behind half of this one; the error is
// returned and the log stays usable. If that cut fails too the log is down
// and every later Append fails, until a rewrite (Compact, Reset) succeeds.
func (l *Log) Append(frame []byte) error {
	if l.down != nil {
		return l.down
	}
	if len(frame) <= 4 {
		return errors.New("framelog: empty frame")
	}
	frame = seal(frame)
	if _, err := l.f.Write(frame); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.down = fmt.Errorf("framelog: %s is down: append failed (%v) and cutting it back failed: %w", l.path, err, terr)
			return l.down
		}
		return fmt.Errorf("framelog: append: %w", err)
	}
	l.size += int64(len(frame))
	return nil
}

// Compact rewrites the log to the frames emit adds, if the log has grown
// past its bound since the last rewrite; otherwise it does nothing, and
// emit is not called. A rewrite that fails leaves the old file and
// descriptor in place, is counted, and is not tried again until the log
// has grown by the factor once more.
func (l *Log) Compact(emit func(add func(frame []byte))) {
	if l.size <= max(compactFloor, compactFactor*l.lastCompact) {
		return
	}
	if err := l.rewrite(l.header, emit); err != nil {
		l.compactErrors++
		l.lastCompact = l.size
		return
	}
	l.compactions++
}

// Reset replaces the log with an empty one under a new header.
func (l *Log) Reset(header string) error {
	return l.rewrite(header, nil)
}

// rewrite builds header plus the frames emit adds in a temp file beside
// the log and renames it over the log: a crash leaves either the old file
// or the complete new one. The temp file's descriptor, opened for append,
// then is the log's.
func (l *Log) rewrite(header string, emit func(add func(frame []byte))) error {
	if l.down == ErrClosed {
		return ErrClosed
	}
	tmp := l.path + ".tmp"
	f, err := openFile(tmp, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("framelog: rewrite: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	// A bufio.Writer keeps its first error and returns it from Flush.
	n, _ := w.WriteString(header + "\n")
	written := int64(n)
	if emit != nil {
		emit(func(frame []byte) {
			n, _ := w.Write(seal(frame))
			written += int64(n)
		})
	}
	err = w.Flush()
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("framelog: rewrite: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.header, l.down = f, header, nil
	l.size, l.lastCompact = written, written
	return nil
}

// Counters reports how many compactions have succeeded and failed since
// Open.
func (l *Log) Counters() (compactions, compactErrors uint64) {
	return l.compactions, l.compactErrors
}

// Close closes the file. Later appends fail with ErrClosed.
func (l *Log) Close() error {
	if l.down == ErrClosed {
		return nil
	}
	l.down = ErrClosed
	return l.f.Close()
}
