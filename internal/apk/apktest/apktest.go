// Package apktest makes hostile APK archives for tests: it rewrites a good
// archive at the zip level — headers and compressed streams as they sit in
// the file — so a test can plant exactly one lie (a declared size, a CRC, a
// damaged stream, a missing entry) and leave everything else byte-true.
package apktest

import (
	"archive/zip"
	"bytes"
	"io"
	"testing"
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
