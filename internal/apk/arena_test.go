package apk

import (
	"errors"
	"testing"

	"apichecker/internal/apk/apktest"
	"apichecker/internal/behavior"
)

func TestParseRejectsOversizedDeclaration(t *testing.T) {
	p := program(6, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	bomb := apktest.Declare(t, data, map[string]uint64{"classes.dex": MaxDecodedBytes + 1})
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
	bomb := apktest.Declare(t, data, map[string]uint64{
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
	short := apktest.Declare(t, data, map[string]uint64{"assets/behavior.bin": 1})
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
}
