package apk

import (
	"archive/zip"
	"bytes"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"apichecker/internal/behavior"
)

// rezipLying rewrites one entry of the archive with a raw (stored) copy
// whose central-directory size field declares lieSize instead of the real
// payload length — the shape of a hand-crafted decompression bomb or a
// corrupted directory.
func rezipLying(t *testing.T, data []byte, entry string, lieSize uint64) []byte {
	t.Helper()
	return rezipLyingAll(t, data, map[string]uint64{entry: lieSize})
}

// rezipLyingAll is rezipLying for several entries at once — lies must be
// planted in a single pass, because a lying archive no longer round-trips
// through the zip reader (it verifies sizes on entry reads).
func rezipLyingAll(t *testing.T, data []byte, lies map[string]uint64) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		payload := new(bytes.Buffer)
		if _, err := payload.ReadFrom(rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
		lieSize, lying := lies[f.Name]
		if !lying {
			w, err := zw.Create(f.Name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(payload.Bytes()); err != nil {
				t.Fatal(err)
			}
			continue
		}
		hdr := &zip.FileHeader{
			Name:               f.Name,
			Method:             zip.Store,
			UncompressedSize64: lieSize,
			CompressedSize64:   uint64(payload.Len()),
			CRC32:              crc32.ChecksumIEEE(payload.Bytes()),
		}
		w, err := zw.CreateRaw(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseRejectsOversizedDeclaration(t *testing.T) {
	p := program(6, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	bomb := rezipLying(t, data, "classes.dex", MaxDecodedBytes+1)
	_, err = Parse(bomb)
	if err == nil {
		t.Fatal("Parse accepted an archive declaring more than MaxDecodedBytes")
	}
	if !errors.Is(err, ErrOversized) {
		t.Errorf("error %v does not wrap ErrOversized", err)
	}
	if !errors.Is(err, ErrBadAPK) {
		t.Errorf("error %v does not wrap ErrBadAPK", err)
	}
}

func TestParseRejectsOverflowingDeclarations(t *testing.T) {
	p := program(6, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	// Two entries each declaring ~2^63 bytes wrap the summed uint64 total
	// to a small value that passes the aggregate bound; the per-entry check
	// must reject them before the sum (and before the arena slice math,
	// where int(2^63) goes negative and panics).
	bomb := rezipLyingAll(t, data, map[string]uint64{
		"classes.dex":         1 << 63,
		"AndroidManifest.xml": 1 << 63,
	})
	_, err = Parse(bomb)
	if err == nil {
		t.Fatal("Parse accepted an archive whose declared sizes overflow uint64")
	}
	if !errors.Is(err, ErrOversized) {
		t.Errorf("error %v does not wrap ErrOversized", err)
	}
}

func TestParseRejectsSizeLie(t *testing.T) {
	p := program(7, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	// Declares fewer bytes than the stored payload actually holds: the
	// arena sub-slice would silently truncate without the probe check.
	short := rezipLying(t, data, "assets/behavior.bin", 1)
	if _, err := Parse(short); err == nil {
		t.Error("Parse accepted an entry longer than its declared size")
	}
}

func TestParseSHA256MatchesDigest(t *testing.T) {
	p := program(8, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.SHA256 != Digest(data) {
		t.Error("parse-time SHA256 differs from Digest")
	}
	handed, err := ParseWithDigest(data, Digest(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(handed, parsed) {
		t.Error("ParseWithDigest(data, Digest(data)) differs from Parse(data)")
	}
}
