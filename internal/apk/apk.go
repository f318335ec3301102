// Package apk builds and parses Android application packages.
//
// An APK is a ZIP archive; ours contains the same load-bearing entries a
// real one does:
//
//	AndroidManifest.xml  — configuration (package, permissions, components)
//	classes.dex          — compiled code (see internal/dex)
//	assets/behavior.bin  — the executable semantics (see internal/behavior);
//	                       this plays the role of the bytecode our emulator
//	                       actually runs
//	lib/<abi>/*.so       — native libraries (ARM; markers only)
//	META-INF/MANIFEST.MF — digest manifest standing in for the signature
//
// App identity follows the paper (§4.1): APKs with the same package name
// but different MD5 hashes are different apps; same package name with a
// higher versionCode is an update.
package apk

import (
	"archive/zip"
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"

	"apichecker/internal/behavior"
	"apichecker/internal/dex"
	"apichecker/internal/framework"
	"apichecker/internal/manifest"
)

// ErrBadAPK marks a submission that is not a well-formed APK archive:
// not a zip, missing load-bearing entries, undecodable manifest/dex/
// behaviour blobs, or inconsistent package identity. Every Parse failure
// wraps it, so callers branch with errors.Is(err, ErrBadAPK) instead of
// string matching.
var ErrBadAPK = errors.New("bad APK")

// ErrOversized marks an archive whose declared uncompressed payload
// exceeds MaxDecodedBytes — a decompression-bomb guard on the submission
// path. It always arrives wrapped in ErrBadAPK.
var ErrOversized = errors.New("apk: declared uncompressed size exceeds decode bound")

// MaxDecodedBytes bounds the total uncompressed payload Parse will
// materialize for one archive. Market submissions are a few MiB of dex
// and assets; anything declaring gigabytes is a zip bomb, not an app.
const MaxDecodedBytes = 64 << 20

// APK is a parsed package.
type APK struct {
	Manifest *manifest.Manifest
	Dex      *dex.File
	Program  *behavior.Program

	// MD5 is the hex digest of the serialized archive, the app's
	// identity key in the market database.
	MD5 string

	// SHA256 is the content digest of the serialized archive — the
	// verdict-cache key on the serving path. Computed once at parse time;
	// empty for an APK assembled by hand rather than parsed from bytes.
	SHA256 string

	// Size is the archive size in bytes.
	Size int64
}

// Digest returns the content digest of raw archive bytes: hex-encoded
// sha256, the key byte-identical resubmissions are deduplicated under.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// PackageName returns the manifest package name.
func (a *APK) PackageName() string { return a.Manifest.Package }

// VersionCode returns the manifest version code.
func (a *APK) VersionCode() int { return a.Manifest.VersionCode }

// Build serializes a program into an APK archive. The universe resolves
// permission/intent/API names for the manifest and dex views.
func Build(p *behavior.Program, u *framework.Universe) ([]byte, error) {
	m, err := p.Manifest(u)
	if err != nil {
		return nil, fmt.Errorf("apk: build %s: %w", p.PackageName, err)
	}
	manifestXML, err := m.Encode()
	if err != nil {
		return nil, fmt.Errorf("apk: build %s: %w", p.PackageName, err)
	}
	d, err := p.Dex(u)
	if err != nil {
		return nil, fmt.Errorf("apk: build %s: %w", p.PackageName, err)
	}
	dexBytes, err := d.Encode()
	if err != nil {
		return nil, fmt.Errorf("apk: build %s: %w", p.PackageName, err)
	}
	prog, err := p.Encode()
	if err != nil {
		return nil, fmt.Errorf("apk: build %s: %w", p.PackageName, err)
	}

	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	write := func(name string, data []byte) error {
		// Deterministic archives: fixed method, no timestamps.
		w, err := zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Deflate})
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	entries := map[string][]byte{
		"AndroidManifest.xml": manifestXML,
		"classes.dex":         dexBytes,
		"assets/behavior.bin": prog,
		"resources.arsc":      resourceBlob(p),
	}
	for _, lib := range p.NativeLibs {
		entries[lib] = []byte("\x7fELF-ARM-stub:" + lib)
	}
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := write(name, entries[name]); err != nil {
			return nil, fmt.Errorf("apk: build %s: write %s: %w", p.PackageName, name, err)
		}
	}
	if err := write("META-INF/MANIFEST.MF", signatureFor(entries)); err != nil {
		return nil, fmt.Errorf("apk: build %s: sign: %w", p.PackageName, err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: build %s: close: %w", p.PackageName, err)
	}
	return buf.Bytes(), nil
}

// resourceBlob emits a small filler resource table so archive sizes vary
// plausibly with app complexity.
func resourceBlob(p *behavior.Program) []byte {
	n := 256 + 64*len(p.Activities)
	blob := make([]byte, n)
	seed := uint64(p.Seed)
	for i := range blob {
		seed = seed*6364136223846793005 + 1442695040888963407
		blob[i] = byte(seed >> 56)
	}
	return blob
}

// signatureFor builds the digest manifest.
func signatureFor(entries map[string][]byte) []byte {
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("Manifest-Version: 1.0\nCreated-By: apichecker-apkgen\n\n")
	for _, name := range names {
		sum := md5.Sum(entries[name])
		fmt.Fprintf(&buf, "Name: %s\nMD5-Digest: %s\n\n", name, hex.EncodeToString(sum[:]))
	}
	return buf.Bytes()
}

// Parse opens an APK archive and decodes its load-bearing entries. Any
// malformed archive fails with an error wrapping ErrBadAPK.
func Parse(data []byte) (*APK, error) {
	return ParseWithDigest(data, Digest(data))
}

// ParseWithDigest is Parse for a caller that has already hashed the
// archive: sha256Hex must be Digest(data), and becomes APK.SHA256 without
// the bytes being hashed a second time. The serving pipeline computes the
// digest at admission, as its cache key, before it knows it must parse.
func ParseWithDigest(data []byte, sha256Hex string) (*APK, error) {
	out, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadAPK, err)
	}
	out.SHA256 = sha256Hex
	return out, nil
}

// loadEntries are the archive members Parse materializes, in arena layout
// order. Everything else (resources, native-lib markers, the signature
// manifest) is validated structurally by the zip reader but never copied
// out.
var loadEntries = [...]string{"AndroidManifest.xml", "classes.dex", "assets/behavior.bin"}

// readEntrySized decompresses one zip entry into dst, which the caller
// pre-sized from the entry's declared UncompressedSize64. A decompressed
// stream shorter or longer than declared is a corrupt archive, not a
// truncation to tolerate: the declared size drove the allocation, so a
// mismatch means the central directory lies.
func readEntrySized(f *zip.File, dst []byte) error {
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

func parse(data []byte) (*APK, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("apk: parse: not a zip archive: %w", err)
	}

	// One pass over the central directory: locate the load-bearing entries
	// and bound the total decode size before allocating anything. Sizes
	// come from the directory, so the arena is allocated exactly once at
	// its final size — no per-entry io.ReadAll growth copies.
	var files [len(loadEntries)]*zip.File
	var total uint64
	for _, f := range zr.File {
		for i, name := range loadEntries {
			if f.Name == name && files[i] == nil {
				// Per-entry bound before summing: the declared sizes are
				// attacker-controlled zip64 fields, and two ~2^63
				// declarations would wrap the uint64 total right past the
				// aggregate check below (and then panic slicing the arena).
				if f.UncompressedSize64 > MaxDecodedBytes {
					return nil, fmt.Errorf("%w: %s declares %d bytes (> %d)",
						ErrOversized, f.Name, f.UncompressedSize64, MaxDecodedBytes)
				}
				files[i] = f
				total += f.UncompressedSize64
			}
		}
	}
	// total cannot overflow: each addend was individually bounded above.
	if total > MaxDecodedBytes {
		return nil, fmt.Errorf("%w (%d > %d)", ErrOversized, total, MaxDecodedBytes)
	}
	for i, f := range files {
		if f == nil {
			return nil, fmt.Errorf("apk: parse: entry %s missing", loadEntries[i])
		}
	}

	// Arena decode: one sized buffer, entry payloads sub-sliced out of it.
	arena := make([]byte, total)
	var payloads [len(loadEntries)][]byte
	off := 0
	for i, f := range files {
		n := int(f.UncompressedSize64)
		payloads[i] = arena[off : off+n : off+n]
		off += n
		if err := readEntrySized(f, payloads[i]); err != nil {
			return nil, fmt.Errorf("apk: parse: %w", err)
		}
	}
	manifestXML, dexBytes, progBytes := payloads[0], payloads[1], payloads[2]

	out := &APK{Size: int64(len(data))}
	if out.Manifest, err = manifest.Decode(manifestXML); err != nil {
		return nil, fmt.Errorf("apk: parse: %w", err)
	}
	if out.Dex, err = dex.Decode(dexBytes); err != nil {
		return nil, fmt.Errorf("apk: parse %s: %w", out.Manifest.Package, err)
	}
	if out.Program, err = behavior.Decode(progBytes); err != nil {
		return nil, fmt.Errorf("apk: parse %s: %w", out.Manifest.Package, err)
	}
	if out.Program.PackageName != out.Manifest.Package {
		return nil, fmt.Errorf("apk: parse: manifest package %s != program package %s",
			out.Manifest.Package, out.Program.PackageName)
	}
	sum := md5.Sum(data)
	out.MD5 = hex.EncodeToString(sum[:])
	return out, nil
}

// ParseManifestOnly decodes just AndroidManifest.xml from an APK archive:
// one central-directory pass to locate the entry, one sized decompression,
// one XML decode. No dex, no behaviour blob, no arena — the triage tier's
// microsecond pre-screen path, which needs only permissions and component
// metadata. The same per-entry zip-bomb bound applies as in Parse, and any
// malformed archive fails with an error wrapping ErrBadAPK.
func ParseManifestOnly(data []byte) (*manifest.Manifest, error) {
	m, err := parseManifestOnly(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadAPK, err)
	}
	return m, nil
}

func parseManifestOnly(data []byte) (*manifest.Manifest, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("apk: parse: not a zip archive: %w", err)
	}
	var mf *zip.File
	for _, f := range zr.File {
		if f.Name == loadEntries[0] && mf == nil {
			// Same attacker-controlled-size discipline as parse: bound the
			// declared size before allocating for it.
			if f.UncompressedSize64 > MaxDecodedBytes {
				return nil, fmt.Errorf("%w: %s declares %d bytes (> %d)",
					ErrOversized, f.Name, f.UncompressedSize64, MaxDecodedBytes)
			}
			mf = f
		}
	}
	if mf == nil {
		return nil, fmt.Errorf("apk: parse: entry %s missing", loadEntries[0])
	}
	buf := make([]byte, mf.UncompressedSize64)
	if err := readEntrySized(mf, buf); err != nil {
		return nil, fmt.Errorf("apk: parse: %w", err)
	}
	m, err := manifest.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("apk: parse: %w", err)
	}
	return m, nil
}

// BuildAndParse is a convenience composing Build and Parse; it returns the
// archive bytes alongside the parsed view.
func BuildAndParse(p *behavior.Program, u *framework.Universe) ([]byte, *APK, error) {
	data, err := Build(p, u)
	if err != nil {
		return nil, nil, err
	}
	parsed, err := Parse(data)
	if err != nil {
		return nil, nil, fmt.Errorf("apk: self-check failed: %w", err)
	}
	return data, parsed, nil
}
