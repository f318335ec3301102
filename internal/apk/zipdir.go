package apk

// The read side of the zip container. archive/zip writes the archives
// (Build) and is the reference the tests hold this reader to
// (FuzzDirectoryMatchesArchiveZip); reading goes through internal/wire, so a
// miss builds no zip.File or name string per entry, and each entry
// inflates straight into its arena slice (inflate.go).
//
// The accept set is archive/zip's with shapes taken out, never added: what
// this reader accepts, archive/zip reads as the same entries with the same
// declared sizes and payloads. DESIGN.md §7 lists what it refuses that
// archive/zip accepts.

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"apichecker/internal/wire"
)

// Record layouts and constants of APPNOTE.TXT §4.3–4.5.
const (
	sigLocal      = 0x04034b50
	sigDirectory  = 0x02014b50
	sigEnd64      = 0x06064b50
	sigLocator64  = 0x07064b50
	sigDescriptor = 0x08074b50

	directoryLen = 46
	endLen       = 22
	end64Len     = 56
	locator64Len = 20
	maxComment   = 1<<16 - 1

	zip64Extra     = 0x0001
	flagDescriptor = 0x8
	methodStore    = 0
	methodDeflate  = 8

	max16 = 1<<16 - 1
	max32 = 1<<32 - 1
)

var errMultiDisk = errors.New("multi-disk archive")

// entry is one load-bearing member: its directory record, held to its
// local header, and its compressed bytes.
type entry struct {
	found  bool
	flags  uint16
	method uint16
	crc    uint32
	usize  uint64 // declared uncompressed size
	csize  uint64
	offset uint64 // of the local header
	body   []byte // the compressed bytes, a sub-slice of the archive
}

// readDirectory finds the end record, walks the central directory once
// keeping the first record of each load-bearing name, and holds each of
// those to its local header and to the others. Every failure here is the
// container's.
func (a *Archive) readDirectory(data []byte) error {
	start, end, records, err := findDirectory(data)
	if err != nil {
		return err
	}
	r := wire.NewReader(data[start:end])
	n := r.Count(records, "central directory record", directoryLen)
	for k := 0; k < n && r.Err() == nil; k++ {
		a.readRecord(&r)
	}
	r.End()
	if err := r.Err(); err != nil {
		return fmt.Errorf("central directory: %w", err)
	}

	// Bodies and descriptors must end before the directory starts.
	var ends [len(loadEntries)]uint64
	for i := range a.files {
		if !a.files[i].found {
			continue
		}
		if ends[i], err = a.files[i].locate(data[:start], loadEntries[i]); err != nil {
			return fmt.Errorf("entry %s: %w", loadEntries[i], err)
		}
	}
	for i := range a.files {
		for j := i + 1; j < len(a.files); j++ {
			if a.files[i].found && a.files[j].found &&
				a.files[i].offset < ends[j] && a.files[j].offset < ends[i] {
				return fmt.Errorf("entries %s and %s overlap", loadEntries[i], loadEntries[j])
			}
		}
	}
	return nil
}

// findDirectory returns where the central directory starts and ends and
// how many records it declares. The end record is the last signature in
// the final endLen+maxComment bytes (the one archive/zip takes), and its
// comment must end the archive. A zip64 end record is read when its
// locator sits right before the end record, which must then defer every
// field to it. The directory must end where the end record (or the zip64
// one) starts: no bytes before the first entry, none between.
func findDirectory(data []byte) (start, end int, records uint64, err error) {
	end = -1
	for i := len(data) - endLen; i >= max(0, len(data)-endLen-maxComment); i-- {
		if data[i] == 'P' && data[i+1] == 'K' && data[i+2] == 5 && data[i+3] == 6 {
			end = i
			break
		}
	}
	if end < 0 {
		return 0, 0, 0, errors.New("no end of central directory record")
	}
	r := wire.NewReader(data[end+4:])
	disk, dirDisk := r.U16(), r.U16()
	here, total := r.U16(), r.U16()
	size, off := uint64(r.U32()), uint64(r.U32())
	if int(r.U16()) != r.Len() {
		return 0, 0, 0, errors.New("end record comment does not end the archive")
	}
	if disk != 0 || dirDisk != 0 || here != total {
		return 0, 0, 0, errMultiDisk
	}
	records = uint64(total)

	if loc := end - locator64Len; loc >= 0 {
		l := wire.NewReader(data[loc:end])
		if l.U32() == sigLocator64 {
			if total != max16 || size != max32 || off != max32 {
				return 0, 0, 0, errors.New("zip64 locator behind an end record that does not defer to it")
			}
			locDisk, at, disks := l.U32(), l.U64(), l.U32()
			if locDisk != 0 || disks != 1 {
				return 0, 0, 0, errMultiDisk
			}
			if loc < end64Len || at != uint64(loc-end64Len) {
				return 0, 0, 0, errors.New("zip64 end record is not right before its locator")
			}
			z := wire.NewReader(data[loc-end64Len : loc])
			if z.U32() != sigEnd64 {
				return 0, 0, 0, errors.New("no zip64 end record where its locator points")
			}
			z.Bytes(12) // record size, versions made by and needed
			disk, dirDisk := z.U32(), z.U32()
			here, total := z.U64(), z.U64()
			if disk != 0 || dirDisk != 0 || here != total {
				return 0, 0, 0, errMultiDisk
			}
			records, size, off = total, z.U64(), z.U64()
			end = loc - end64Len
		}
	}
	if off > uint64(end) || size != uint64(end)-off {
		return 0, 0, 0, errors.New("central directory does not end where the end record starts")
	}
	return int(off), end, records, nil
}

// readRecord reads one central directory record and keeps it if it is the
// first of a load-bearing name. The name is compared in place.
func (a *Archive) readRecord(r *wire.Reader) {
	at := r.Off()
	if r.U32() != sigDirectory {
		r.Fail(fmt.Errorf("no record signature at byte %d", at))
		return
	}
	r.Bytes(4) // versions made by and needed
	var e entry
	e.flags, e.method = r.U16(), r.U16()
	r.Bytes(4) // modification time and date
	e.crc = r.U32()
	csize, usize := r.U32(), r.U32()
	nameLen, extraLen, commentLen := r.U16(), r.U16(), r.U16()
	r.Bytes(8) // disk start, internal and external attributes
	off := r.U32()
	name := r.Bytes(int(nameLen))
	extra := r.Bytes(int(extraLen))
	r.Bytes(int(commentLen))
	if r.Err() != nil {
		return
	}
	e.csize, e.usize, e.offset = uint64(csize), uint64(usize), uint64(off)
	if err := e.zip64(extra, usize == max32, csize == max32, off == max32); err != nil {
		r.Fail(fmt.Errorf("record at byte %d: %w", at, err))
		return
	}
	for i, want := range loadEntries {
		if !a.files[i].found && string(name) == want {
			e.found = true
			a.files[i] = e
		}
	}
}

// zip64 takes the fields a record maxed out from its zip64 extra field, in
// the order and under the rules archive/zip reads them: a torn extra ends
// the scan, an uncompressed size left at max32 stands as declared, and a
// compressed size or offset left there is refused.
func (e *entry) zip64(extra []byte, needU, needC, needO bool) error {
	x := wire.NewReader(extra)
	for x.Len() >= 4 {
		tag, size := x.U16(), int(x.U16())
		if x.Len() < size {
			break
		}
		f := wire.NewReader(x.Bytes(size))
		if tag != zip64Extra {
			continue
		}
		if needU {
			e.usize, needU = f.U64(), false
		}
		if needC {
			e.csize, needC = f.U64(), false
		}
		if needO {
			e.offset, needO = f.U64(), false
		}
		if f.Err() != nil {
			return errors.New("short zip64 extra field")
		}
	}
	if needC || needO {
		return errors.New("compressed size or offset maxed out with no zip64 extra field")
	}
	return nil
}

// locate holds the entry's local header to its directory record, slices
// out its compressed bytes and returns where the entry's bytes end. data
// stops where the central directory starts, so a body or data descriptor
// that reaches into the directory fails like one past the archive.
func (e *entry) locate(data []byte, name string) (uint64, error) {
	if e.method != methodStore && e.method != methodDeflate {
		return 0, fmt.Errorf("method %d is neither stored nor deflated", e.method)
	}
	if e.offset > uint64(len(data)) {
		return 0, errors.New("local header outside the archive")
	}
	r := wire.NewReader(data[e.offset:])
	if r.U32() != sigLocal {
		return 0, errors.New("no local header where the directory points")
	}
	r.Bytes(2) // version needed
	flags, method := r.U16(), r.U16()
	r.Bytes(4) // modification time and date
	crc, csize, usize := r.U32(), r.U32(), r.U32()
	nameLen, extraLen := r.U16(), r.U16()
	localName := r.Bytes(int(nameLen))
	r.Bytes(int(extraLen))
	switch {
	case r.Err() != nil:
		return 0, fmt.Errorf("local header: %w", r.Err())
	case string(localName) != name:
		return 0, fmt.Errorf("local header names %q", localName)
	case method != e.method:
		return 0, fmt.Errorf("local header method %d, directory %d", method, e.method)
	case (flags^e.flags)&flagDescriptor != 0:
		return 0, errors.New("local header and directory disagree on a data descriptor")
	case e.flags&flagDescriptor == 0 &&
		(crc != e.crc || uint64(csize) != min(e.csize, max32) || uint64(usize) != min(e.usize, max32)):
		return 0, errors.New("local header sizes or CRC differ from the directory's")
	}
	if e.csize > uint64(r.Len()) {
		return 0, errors.New("body runs into the central directory")
	}
	e.body = r.Bytes(int(e.csize))
	if e.flags&flagDescriptor != 0 {
		// The signature is optional. The sizes after the CRC are 32 or 64
		// bits by convention, not by flag; the directory's are the ones used.
		crc := r.U32()
		if crc == sigDescriptor {
			crc = r.U32()
		}
		r.Bytes(8)
		if r.Err() != nil {
			return 0, errors.New("data descriptor runs into the central directory")
		}
		if crc != e.crc {
			return 0, errors.New("data descriptor CRC differs from the directory's")
		}
	}
	return e.offset + uint64(r.Off()), nil
}

// read decompresses the entry into dst, which the caller sized from the
// declared length. A stream shorter or longer than declared, or one whose
// CRC-32 is not the directory's, is a corrupt archive: the declared size
// drove the allocation, so a mismatch means the directory lies. Output
// that fills dst before the stream fails counts as longer, as it did when
// flate's reader was read to dst and probed for one byte more. Dynamic
// blocks build their Huffman tables in h.
func (e *entry) read(name string, dst []byte, h *huffman) error {
	n, err := len(e.body), error(nil)
	if e.method == methodDeflate {
		n, err = inflate(dst, e.body, h)
	} else {
		copy(dst, e.body)
	}
	switch {
	case err == errOverrun || n > len(dst) || err != nil && n == len(dst):
		return fmt.Errorf("entry %s longer than declared %d bytes", name, len(dst))
	case err != nil || n < len(dst):
		return fmt.Errorf("entry %s shorter than declared %d bytes: %w", name, len(dst), cmp.Or(err, io.ErrUnexpectedEOF))
	case crc32.ChecksumIEEE(dst) != e.crc:
		return fmt.Errorf("entry %s fails its CRC-32", name)
	}
	return nil
}
