package apk

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"testing"
)

// refArchive is Archive.open and readEntrySized as they stood when the
// package read archives through archive/zip, kept verbatim (but for the
// names) as the reference the directory reader is held to.
type refArchive struct {
	files  [len(loadEntries)]*zip.File
	setErr error
}

func refOversized(f *zip.File) error {
	return badAPK(fmt.Errorf("%w: %s declares %d bytes (> %d)",
		ErrOversized, f.Name, f.UncompressedSize64, MaxDecodedBytes))
}

func (a *refArchive) open(data []byte) error {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return badAPK(fmt.Errorf("apk: parse: not a zip archive: %w", err))
	}

	// One pass over the central directory: locate the load-bearing entries
	// (first of a name wins) and bound the total decode size before
	// anything is allocated for them.
	var total uint64
	for _, f := range zr.File {
		for i, name := range loadEntries {
			if f.Name != name || a.files[i] != nil {
				continue
			}
			a.files[i] = f
			// Per-entry bound before summing: the declared sizes are
			// attacker-controlled zip64 fields, and two ~2^63 declarations
			// would wrap the uint64 total right past the aggregate check
			// below (and then panic slicing the arena).
			if f.UncompressedSize64 > MaxDecodedBytes {
				if a.setErr == nil {
					a.setErr = refOversized(f)
				}
				continue
			}
			total += f.UncompressedSize64
		}
	}
	if a.setErr != nil {
		return nil
	}
	// total cannot overflow: each addend was individually bounded above.
	if total > MaxDecodedBytes {
		a.setErr = badAPK(fmt.Errorf("%w (%d > %d)", ErrOversized, total, MaxDecodedBytes))
		return nil
	}
	for i, f := range a.files {
		if f == nil {
			a.setErr = missing(i)
			break
		}
	}
	return nil
}

// refReadEntrySized decompresses one zip entry into dst, which the caller
// pre-sized from the entry's declared UncompressedSize64. A decompressed
// stream shorter or longer than declared is a corrupt archive, not a
// truncation to tolerate: the declared size drove the allocation, so a
// mismatch means the central directory lies.
func refReadEntrySized(f *zip.File, dst []byte) error {
	rc, err := f.Open()
	if err != nil {
		return err
	}
	defer rc.Close()
	if _, err := io.ReadFull(rc, dst); err != nil {
		return fmt.Errorf("entry %s shorter than declared %d bytes: %w", f.Name, len(dst), err)
	}
	var probe [1]byte
	if n, err := rc.Read(probe[:]); n != 0 || (err != nil && err != io.EOF) {
		return fmt.Errorf("entry %s longer than declared %d bytes", f.Name, len(dst))
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzDirectoryMatchesArchiveZip holds the directory reader to archive/zip:
// whatever Open accepts, archive/zip opens too, finding the same
// load-bearing entries with the same declared sizes and the same verdict on
// the set; and every entry the reader inflates, archive/zip inflates to the
// same bytes. Every archive Build writes must be accepted.
func FuzzDirectoryMatchesArchiveZip(f *testing.F) {
	addArchiveSeeds(f)
	for _, tc := range hostileContainers(f) {
		f.Add(tc.data)
	}
	for i, data := range goldenArchives(f) {
		if _, err := Inflate(data); err != nil {
			f.Fatalf("golden archive %d refused: %v", i, err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Open(data)
		if err != nil {
			return
		}
		var ref refArchive
		if err := ref.open(data); err != nil {
			t.Fatalf("Open accepts what archive/zip refuses: %v", err)
		}
		if got, want := errText(a.setErr), errText(ref.setErr); got != want {
			t.Fatalf("the load-bearing set is judged differently:\nOpen:        %s\narchive/zip: %s", got, want)
		}
		for i, rf := range ref.files {
			e := &a.files[i]
			if e.found != (rf != nil) {
				t.Fatalf("%s: found %v, archive/zip %v", loadEntries[i], e.found, rf != nil)
			}
			if rf == nil {
				continue
			}
			if e.usize != rf.UncompressedSize64 {
				t.Fatalf("%s: declares %d bytes, archive/zip reads %d", loadEntries[i], e.usize, rf.UncompressedSize64)
			}
			got, err := a.payload(i)
			if err != nil {
				continue
			}
			want := make([]byte, rf.UncompressedSize64)
			if err := refReadEntrySized(rf, want); err != nil {
				t.Fatalf("%s: inflated here, archive/zip refuses: %v", loadEntries[i], err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: payload differs from archive/zip's", loadEntries[i])
			}
		}
	})
}
