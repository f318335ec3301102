// Package apktest makes hostile APK archives for tests: it rewrites a good
// archive at the zip level — headers and compressed streams as they sit in
// the file — so a test can plant exactly one lie (a declared size, a CRC, a
// damaged stream, a missing entry) and leave everything else byte-true.
package apktest

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"apichecker/internal/wire"
)

// Rewrite copies the archive entry by entry without recompressing. edit
// sees each entry's header and compressed bytes and returns the bytes to
// store; it may change the header in place, and returning nil drops the
// entry. Nothing is re-derived from the payload, so what edit declares is
// what the central directory will say.
func Rewrite(tb testing.TB, data []byte, edit func(h *zip.FileHeader, raw []byte) []byte) []byte {
	tb.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		rr, err := f.OpenRaw()
		if err != nil {
			tb.Fatal(err)
		}
		raw, err := io.ReadAll(rr)
		if err != nil {
			tb.Fatal(err)
		}
		h := f.FileHeader
		if raw = edit(&h, raw); raw == nil {
			continue
		}
		w, err := zw.CreateRaw(&h)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := w.Write(raw); err != nil {
			tb.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// Drop removes one entry.
func Drop(tb testing.TB, data []byte, entry string) []byte {
	tb.Helper()
	return Rewrite(tb, data, func(h *zip.FileHeader, raw []byte) []byte {
		if h.Name == entry {
			return nil
		}
		return raw
	})
}

// Declare makes the directory claim the given uncompressed sizes for the
// named entries; their streams are untouched, so the claims are lies.
func Declare(tb testing.TB, data []byte, sizes map[string]uint64) []byte {
	tb.Helper()
	return Rewrite(tb, data, func(h *zip.FileHeader, raw []byte) []byte {
		if n, ok := sizes[h.Name]; ok {
			h.UncompressedSize64 = n
		}
		return raw
	})
}

// Corruptions are ways to break one entry's payload while its directory
// record stays sound: present, uniquely named, declaring its true size.
var Corruptions = map[string]func(h *zip.FileHeader, raw []byte) []byte{
	// A flipped bit in the middle of the compressed stream: it inflates to
	// an error or to different bytes, and the CRC catches the latter.
	"bit flip": func(_ *zip.FileHeader, raw []byte) []byte {
		out := bytes.Clone(raw)
		out[len(out)/2] ^= 0x10
		return out
	},
	// The stream ends early; the directory still declares the full sizes.
	"truncated stream": func(h *zip.FileHeader, raw []byte) []byte {
		out := raw[:len(raw)/2]
		h.CompressedSize64 = uint64(len(out))
		return out
	},
	// The stream is intact and the recorded checksum is not its own.
	"wrong CRC": func(h *zip.FileHeader, raw []byte) []byte {
		h.CRC32 ^= 0xdeadbeef
		return raw
	},
}

// Corrupt applies one of Corruptions to the named entry.
func Corrupt(tb testing.TB, data []byte, entry, kind string) []byte {
	tb.Helper()
	corrupt, ok := Corruptions[kind]
	if !ok {
		tb.Fatalf("apktest: no corruption %q", kind)
	}
	return Rewrite(tb, data, func(h *zip.FileHeader, raw []byte) []byte {
		if h.Name == entry {
			return corrupt(h, raw)
		}
		return raw
	})
}

// DeclarePrefix makes the directory claim only the first n bytes of the
// entry's payload, with their CRC-32: a stream longer than declared that
// only a read past the declared length can tell.
func DeclarePrefix(tb testing.TB, data []byte, entry string, n int) []byte {
	tb.Helper()
	return Rewrite(tb, data, func(h *zip.FileHeader, raw []byte) []byte {
		if h.Name == entry {
			payload, err := io.ReadAll(flate.NewReader(bytes.NewReader(raw)))
			if err != nil || len(payload) < n {
				tb.Fatalf("apktest: %s does not inflate to %d bytes: %v", entry, n, err)
			}
			h.UncompressedSize64 = uint64(n)
			h.CRC32 = crc32.ChecksumIEEE(payload[:n])
		}
		return raw
	})
}

// Stretch records the entry's true sizes and CRC in its local header
// instead of a data descriptor, then declares n more compressed bytes than
// its stream holds, so its body runs over whatever the archive stores after
// it. Inflate stops at the stream's end, so nothing but the layout is
// wrong.
func Stretch(tb testing.TB, data []byte, entry string, n int) []byte {
	tb.Helper()
	return Rewrite(tb, data, func(h *zip.FileHeader, raw []byte) []byte {
		if h.Name == entry {
			h.Flags &^= 0x8
			h.CompressedSize64 += uint64(n)
		}
		return raw
	})
}

// EditLocal lets edit change the entry's local header in place: the
// 30-byte fixed part (method at 8, CRC and sizes at 14) and the name.
func EditLocal(tb testing.TB, data []byte, entry string, edit func(h []byte)) []byte {
	tb.Helper()
	out := bytes.Clone(data)
	off, _ := locate(tb, out, entry)
	edit(out[off : off+30+len(entry)])
	return out
}

// EditDescriptor lets edit change the data descriptor after the entry's
// body in place: signature, CRC-32, then the 32-bit sizes.
func EditDescriptor(tb testing.TB, data []byte, entry string, edit func(d []byte)) []byte {
	tb.Helper()
	out := bytes.Clone(data)
	_, f := locate(tb, out, entry)
	body, err := f.DataOffset()
	if err != nil {
		tb.Fatal(err)
	}
	at := body + int64(f.CompressedSize64)
	edit(out[at : at+16])
	return out
}

// EditEnd lets edit change the end of central directory record in place:
// disk numbers at 4 and 6, entry counts at 8 and 10, directory size and
// offset at 12 and 16, comment length at 20. The archive must carry no
// comment.
func EditEnd(tb testing.TB, data []byte, edit func(end []byte)) []byte {
	tb.Helper()
	out := bytes.Clone(data)
	edit(out[len(out)-22:])
	return out
}

// Comment appends an end-record comment to an archive that has none.
func Comment(tb testing.TB, data []byte, comment string) []byte {
	tb.Helper()
	out := append(bytes.Clone(data), comment...)
	binary.LittleEndian.PutUint16(out[len(data)-2:], uint16(len(comment)))
	return out
}

// Zip64End moves an archive's directory totals into a zip64 end record and
// locator, leaving every field of the end record maxed out to defer to
// them. The archive must carry no comment.
func Zip64End(tb testing.TB, data []byte) []byte {
	tb.Helper()
	end := len(data) - 22
	r := wire.NewReader(data[end+10:])
	records, size, offset := uint64(r.U16()), uint64(r.U32()), uint64(r.U32())
	if r.Err() != nil {
		tb.Fatal(r.Err())
	}
	le := binary.LittleEndian
	out := bytes.Clone(data[:end])
	out = le.AppendUint32(out, 0x06064b50)
	out = le.AppendUint64(out, 44)
	out = le.AppendUint16(le.AppendUint16(out, 45), 45)
	out = le.AppendUint32(le.AppendUint32(out, 0), 0)
	out = le.AppendUint64(le.AppendUint64(out, records), records)
	out = le.AppendUint64(le.AppendUint64(out, size), offset)
	out = le.AppendUint32(out, 0x07064b50)
	out = le.AppendUint32(out, 0)
	out = le.AppendUint64(out, uint64(end))
	out = le.AppendUint32(out, 1)
	out = le.AppendUint32(out, 0x06054b50)
	out = le.AppendUint32(out, 0)
	out = le.AppendUint32(out, 0xffffffff)
	out = le.AppendUint64(out, 0xffffffffffffffff)
	return le.AppendUint16(out, 0)
}

// locate finds the entry's local header: the directory gives where its
// body starts, and the header is the 30 bytes, the name and the local
// extra field before it.
func locate(tb testing.TB, data []byte, entry string) (int, *zip.File) {
	tb.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range zr.File {
		if f.Name != entry {
			continue
		}
		body, err := f.DataOffset()
		if err != nil {
			tb.Fatal(err)
		}
		for off := int(body) - 30 - len(entry); off >= 0; off-- {
			r := wire.NewReader(data[off:])
			if r.U32() != 0x04034b50 {
				continue
			}
			r.Bytes(22)
			if nameLen, extraLen := int(r.U16()), int(r.U16()); nameLen == len(entry) &&
				off+30+nameLen+extraLen == int(body) && string(r.Bytes(nameLen)) == entry {
				return off, f
			}
		}
		tb.Fatalf("apktest: no local header for %s", entry)
	}
	tb.Fatalf("apktest: no entry %s", entry)
	return 0, nil
}
