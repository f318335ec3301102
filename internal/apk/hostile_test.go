package apk

import (
	"archive/zip"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"apichecker/internal/apk/apktest"
	"apichecker/internal/behavior"
)

// vetView is what the serving pipeline reads from an archive: the handle's
// manifest and behaviour program, and never its dex.
func vetView(data []byte) (*Archive, error) {
	a, err := Open(data)
	if err != nil {
		return nil, err
	}
	if _, err := a.Program(); err != nil {
		return nil, err
	}
	if _, err := a.Manifest(); err != nil {
		return nil, err
	}
	return a, nil
}

func corruptionKinds() []string {
	kinds := make([]string, 0, len(apktest.Corruptions))
	for kind := range apktest.Corruptions {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	return kinds
}

// TestHostileCorruptDexPayload is the vet path's one accept-set difference
// from Parse: a dex entry the directory describes soundly but whose payload
// is damaged. The vet view reads the same manifest and program the intact
// archive carries; Parse, and the handle's own Dex, refuse it.
func TestHostileCorruptDexPayload(t *testing.T) {
	p := program(21, behavior.Malicious, behavior.FamilySpyware)
	data, intact, err := BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range corruptionKinds() {
		bad := apktest.Corrupt(t, data, "classes.dex", kind)
		if _, err := Parse(bad); !errors.Is(err, ErrBadAPK) {
			t.Errorf("%s: Parse = %v, want ErrBadAPK", kind, err)
		}
		a, err := vetView(bad)
		if err != nil {
			t.Errorf("%s: vet view refused: %v", kind, err)
			continue
		}
		m, _ := a.Manifest()
		prog, _ := a.Program()
		if !reflect.DeepEqual(m, intact.Manifest) || !reflect.DeepEqual(prog, intact.Program) {
			t.Errorf("%s: vet view differs from the intact archive's manifest/program", kind)
		}
		_, dexErr := a.Dex()
		if !errors.Is(dexErr, ErrBadAPK) {
			t.Errorf("%s: Dex = %v, want ErrBadAPK", kind, dexErr)
		}
		if _, again := a.Dex(); again != dexErr {
			t.Errorf("%s: Dex error not memoized: %v then %v", kind, dexErr, again)
		}
	}

	// The same damage to an entry the vet path does read is still refused.
	for _, entry := range []string{"AndroidManifest.xml", "assets/behavior.bin"} {
		for _, kind := range corruptionKinds() {
			if _, err := vetView(apktest.Corrupt(t, data, entry, kind)); !errors.Is(err, ErrBadAPK) {
				t.Errorf("%s of %s: vet view = %v, want ErrBadAPK", kind, entry, err)
			}
		}
	}
}

// TestHostileDexDirectoryRecord: what the directory says about the dex is
// held to on the vet path exactly as in Parse — it must be there, declare
// no more than MaxDecodedBytes, and fit under the bound together with the
// two entries that are inflated — even though its bytes are never read.
func TestHostileDexDirectoryRecord(t *testing.T) {
	p := program(22, behavior.Benign, behavior.FamilyNone)
	data, parsed, err := BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parsed.Program.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		data      []byte
		oversized bool
	}{
		{"missing", apktest.Drop(t, data, "classes.dex"), false},
		{"declares one byte over the bound", apktest.Declare(t, data, map[string]uint64{"classes.dex": MaxDecodedBytes + 1}), true},
		// Each declaration alone is inside the bound; only the sum is over.
		{"over the bound only together", apktest.Declare(t, data, map[string]uint64{
			"classes.dex": MaxDecodedBytes - uint64(len(prog)),
		}), true},
		// Two ~2^63 declarations wrap a summed uint64 to a small total.
		{"wrapping with the manifest", apktest.Declare(t, data, map[string]uint64{
			"classes.dex": 1 << 63, "AndroidManifest.xml": 1 << 63,
		}), true},
		{"wrapping with the behaviour blob", apktest.Declare(t, data, map[string]uint64{
			"classes.dex": 1 << 63, "assets/behavior.bin": 1 << 63,
		}), true},
	}
	for _, tc := range cases {
		_, vetErr := vetView(tc.data)
		_, parseErr := Parse(tc.data)
		for path, err := range map[string]error{"vet view": vetErr, "Parse": parseErr} {
			if !errors.Is(err, ErrBadAPK) {
				t.Errorf("%s: %s = %v, want ErrBadAPK", tc.name, path, err)
			}
			if errors.Is(err, ErrOversized) != tc.oversized {
				t.Errorf("%s: %s = %v, ErrOversized want %v", tc.name, path, err, tc.oversized)
			}
		}
		if vetErr != nil && parseErr != nil && vetErr.Error() != parseErr.Error() {
			t.Errorf("%s: vet view and Parse refuse differently:\n%v\n%v", tc.name, vetErr, parseErr)
		}
	}
}

// TestHostileDuplicateEntries: the first entry of a name is the one that
// counts, for the bound as for the payload, on both paths.
func TestHostileDuplicateEntries(t *testing.T) {
	p := program(23, behavior.Benign, behavior.FamilyNone)
	data, intact, err := BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	// A second classes.dex that would not decode: shadowed, so never read.
	shadowed := appendEntry(t, data, "classes.dex", []byte("not a dex"))
	parsed, err := Parse(shadowed)
	if err != nil {
		t.Fatalf("Parse with a shadowed duplicate dex: %v", err)
	}
	if !reflect.DeepEqual(parsed.Dex, intact.Dex) {
		t.Error("Parse read the second classes.dex, not the first")
	}
	if _, err := vetView(shadowed); err != nil {
		t.Errorf("vet view with a shadowed duplicate dex: %v", err)
	}
}

// appendEntry adds one more entry after the archive's own.
func appendEntry(t *testing.T, data []byte, name string, content []byte) []byte {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		if err := zw.Copy(f); err != nil {
			t.Fatal(err)
		}
	}
	w, err := zw.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileRefusalsKeepParseTexts spot-checks that the handle's refusals
// keep Parse's texts, which operators grep for.
func TestHostileRefusalsKeepParseTexts(t *testing.T) {
	p := program(24, behavior.Benign, behavior.FamilyNone)
	data, err := Build(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	_, err = vetView(apktest.Drop(t, data, "classes.dex"))
	if err == nil || !strings.Contains(err.Error(), "apk: parse: entry classes.dex missing") {
		t.Errorf("missing dex: %v", err)
	}
	if _, err := Open([]byte("definitely not a zip")); !errors.Is(err, ErrBadAPK) ||
		!strings.Contains(err.Error(), "not a zip archive") {
		t.Errorf("Open(garbage) = %v", err)
	}
}

// hostileContainer is one archive whose zip container, not its payloads,
// carries the lie; fails says where the package refuses it — "open" for
// Open itself, "read" for the vet view and Parse, "" for nowhere — and why
// is a phrase the refusal must contain.
type hostileContainer struct {
	name  string
	data  []byte
	fails string
	why   string
}

func hostileContainers(tb testing.TB) []hostileContainer {
	p := program(25, behavior.Malicious, behavior.FamilySMSFraud)
	data, err := Build(p, testU)
	if err != nil {
		tb.Fatal(err)
	}
	le := binary.LittleEndian
	rename := func(to string) func(h []byte) { return func(h []byte) { copy(h[30:], to) } }
	// The locator's last field, the number of disks, sits right before the
	// end record.
	twoDisks := apktest.Zip64End(tb, data)
	le.PutUint32(twoDisks[len(twoDisks)-endLen-4:], 2)
	counts := func(delta int) func(end []byte) {
		return func(end []byte) {
			n := le.Uint16(end[10:]) + uint16(delta)
			le.PutUint16(end[8:], n)
			le.PutUint16(end[10:], n)
		}
	}
	return []hostileContainer{
		{"end-record comment", apktest.Comment(tb, data, "built by apkgen"), "", ""},
		{"longest end-record comment", apktest.Comment(tb, data, strings.Repeat("c", 1<<16-1)), "", ""},
		{"zip64 end record", apktest.Zip64End(tb, data), "", ""},
		{"bytes after the end-record comment", append(apktest.Comment(tb, data, "note"), "!!"...), "open", "comment does not end the archive"},
		{"local manifest name differs", apktest.EditLocal(tb, data, "AndroidManifest.xml", rename("AndroidManifest.xmm")), "open", "local header names"},
		{"local dex name differs", apktest.EditLocal(tb, data, "classes.dex", rename("classes.dey")), "open", "local header names"},
		{"local dex method differs", apktest.EditLocal(tb, data, "classes.dex", func(h []byte) { le.PutUint16(h[8:], 0) }), "open", "local header method"},
		{"behaviour blob overlaps the dex", apktest.Stretch(tb, data, "assets/behavior.bin", 1), "open", "overlap"},
		{"dex body runs into the directory", dexIntoDirectory(tb, data), "open", "body runs into the central directory"},
		{"entry count one high", apktest.EditEnd(tb, data, counts(1)), "open", "central directory: truncated"},
		{"entry count one low", apktest.EditEnd(tb, data, counts(-1)), "open", "central directory: trailing data"},
		{"multi-disk end record", apktest.EditEnd(tb, data, func(end []byte) { le.PutUint16(end[4:], 1) }), "open", "multi-disk"},
		{"zip64 locator names two disks", twoDisks, "open", "multi-disk"},
		{"dex descriptor lies about the CRC", apktest.EditDescriptor(tb, data, "classes.dex", func(d []byte) { d[4] ^= 1 }), "open", "data descriptor CRC"},
		{"behaviour blob longer than declared", apktest.DeclarePrefix(tb, data, "assets/behavior.bin", 1), "read", "longer than declared"},
	}
}

// dexIntoDirectory stretches the dex's body until its last byte is the
// central directory's first.
func dexIntoDirectory(tb testing.TB, data []byte) []byte {
	flat := apktest.Stretch(tb, data, "classes.dex", 0)
	dirStart := int64(binary.LittleEndian.Uint32(flat[len(flat)-6:]))
	zr, err := zip.NewReader(bytes.NewReader(flat), int64(len(flat)))
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range zr.File {
		if f.Name == "classes.dex" {
			body, err := f.DataOffset()
			if err != nil {
				tb.Fatal(err)
			}
			return apktest.Stretch(tb, data, "classes.dex", int(dirStart-body-int64(f.CompressedSize64)+1))
		}
	}
	tb.Fatal("no classes.dex")
	return nil
}

// TestHostileContainer: the directory reader refuses a container whose
// records disagree with each other or with the bytes they describe, at
// Open, before anything is inflated — even when the entry at fault is the
// dex, which the vet path never reads — and reads the shapes it accepts as
// the intact archive.
func TestHostileContainer(t *testing.T) {
	p := program(25, behavior.Malicious, behavior.FamilySMSFraud)
	_, intact, err := BuildAndParse(p, testU)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range hostileContainers(t) {
		_, openErr := Open(tc.data)
		a, vetErr := vetView(tc.data)
		parsed, parseErr := Parse(tc.data)
		switch tc.fails {
		case "":
			if vetErr != nil || parseErr != nil {
				t.Errorf("%s: refused: vet view %v, Parse %v", tc.name, vetErr, parseErr)
				continue
			}
			m, _ := a.Manifest()
			prog, _ := a.Program()
			if !reflect.DeepEqual(m, intact.Manifest) || !reflect.DeepEqual(prog, intact.Program) ||
				!reflect.DeepEqual(parsed.Dex, intact.Dex) {
				t.Errorf("%s: read differently from the intact archive", tc.name)
			}
		case "open":
			if !errors.Is(openErr, ErrBadAPK) || !strings.Contains(openErr.Error(), "not a zip archive: ") ||
				!strings.Contains(openErr.Error(), tc.why) {
				t.Errorf("%s: Open = %v, want a container refusal naming %q", tc.name, openErr, tc.why)
			}
		case "read":
			if openErr != nil {
				t.Errorf("%s: Open = %v, want the refusal at read", tc.name, openErr)
			}
			for path, err := range map[string]error{"vet view": vetErr, "Parse": parseErr} {
				if !errors.Is(err, ErrBadAPK) || !strings.Contains(err.Error(), tc.why) {
					t.Errorf("%s: %s = %v, want ErrBadAPK naming %q", tc.name, path, err, tc.why)
				}
			}
		}
	}
}
