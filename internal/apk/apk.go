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
// but different content hashes are different apps; same package name with a
// higher versionCode is an update. The paper's market keys on MD5; here the
// SHA-256 content digest is the one identity — submission id, cache key,
// journal key and the verdict's Digest — so an archive is hashed once.
package apk

import (
	"archive/zip"
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
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

	// SHA256 is the content digest of the serialized archive — the app's
	// identity and the verdict-cache key. Computed once at parse time;
	// empty for an APK assembled by hand rather than parsed from bytes.
	SHA256 string

	// Size is the archive size in bytes.
	Size int64
}

// Digest returns the content digest of raw archive bytes: hex-encoded
// sha256, the key byte-identical resubmissions are deduplicated under.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	var h [2 * sha256.Size]byte // formatted on the stack: one allocation, the string
	hex.Encode(h[:], sum[:])
	return string(h[:])
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
	a, err := Open(data)
	if err != nil {
		return nil, err
	}
	// All three payloads inflate into one arena before any decoder runs.
	if err := a.inflate(entryManifest, entryDex, entryProgram); err != nil {
		return nil, err
	}
	out := &APK{Size: int64(len(data))}
	if out.Manifest, err = a.Manifest(); err != nil {
		return nil, err
	}
	if out.Dex, err = a.Dex(); err != nil {
		return nil, err
	}
	if out.Program, err = a.Program(); err != nil {
		return nil, err
	}
	out.SHA256 = Digest(data)
	return out, nil
}

// ParseManifestOnly decodes just AndroidManifest.xml from an APK archive:
// one central-directory pass to locate the entry, one sized decompression,
// one XML decode. No dex, no behaviour blob, no arena — for callers that
// need only permissions and component metadata. The zip-bomb bound applies
// to the one entry it inflates, and any malformed archive fails with an
// error wrapping ErrBadAPK.
func ParseManifestOnly(data []byte) (*manifest.Manifest, error) {
	a, err := Open(data)
	if err != nil {
		return nil, err
	}
	return a.Manifest()
}

// Inflate decompresses the three load-bearing entries — manifest, dex,
// behaviour blob, in that order — into one arena and decodes none of them:
// the container's share of a Parse.
func Inflate(data []byte) ([len(loadEntries)][]byte, error) {
	a, err := Open(data)
	if err != nil {
		return [len(loadEntries)][]byte{}, err
	}
	err = a.inflate(entryManifest, entryDex, entryProgram)
	return a.payloads, err
}

// The archive members an Archive materializes, in arena layout order.
// Everything else (resources, native-lib markers, the signature manifest)
// is only walked past in the central directory.
const (
	entryManifest = iota
	entryDex
	entryProgram
)

var loadEntries = [...]string{
	entryManifest: "AndroidManifest.xml",
	entryDex:      "classes.dex",
	entryProgram:  "assets/behavior.bin",
}

// Archive is one opened APK: the central directory walked once, the
// load-bearing entries located and their declared sizes judged, nothing
// inflated yet. Manifest, Program and Dex inflate and decode on demand and
// memoize, so a caller pays only for the views it reads — the serving
// pipeline never asks for the dex. Every error wraps ErrBadAPK. Not safe
// for concurrent use.
//
// Reset reopens a handle over another archive and keeps its storage: the
// arena the entries inflate into, and the decoders the manifest and the
// program are refilled from. What the accessors return is then valid until
// the next Reset.
type Archive struct {
	files [len(loadEntries)]entry

	// setErr is what the load-bearing set as a whole fails on — an entry
	// declaring more than MaxDecodedBytes, the three together exceeding it,
	// or one missing. Program and Dex refuse on it; Manifest needs only its
	// own entry sound.
	setErr error

	payloads [len(loadEntries)][]byte

	manifest    *manifest.Manifest
	manifestErr error
	dex         *dex.File
	dexErr      error
	program     *behavior.Program
	programErr  error

	// Storage Reset keeps: the inflate arena (payloads are cut from it)
	// and the decoders behind manifest and program.
	arena     []byte
	manifests manifest.Decoder
	programs  behavior.Decoder
}

// keepArena bounds the inflate arena Reset keeps: past it, one outsized
// archive would pin its storage to the handle for good.
const keepArena = 1 << 20

// Open walks the archive's central directory and holds each load-bearing
// entry's local header to it. It fails only on a malformed container;
// what the directory declares is judged here and reported by the accessors
// that depend on it.
func Open(data []byte) (*Archive, error) {
	a := new(Archive)
	if err := a.open(data); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset reopens the handle over data, as Open does, keeping the storage the
// last archive decoded into.
func (a *Archive) Reset(data []byte) error {
	arena := a.arena[:0]
	if cap(arena) > keepArena {
		arena = nil
	}
	*a = Archive{arena: arena, manifests: a.manifests, programs: a.programs}
	return a.open(data)
}

func badAPK(err error) error { return fmt.Errorf("%w: %w", ErrBadAPK, err) }

func oversized(i int, f *entry) error {
	return badAPK(fmt.Errorf("%w: %s declares %d bytes (> %d)",
		ErrOversized, loadEntries[i], f.usize, MaxDecodedBytes))
}

func missing(i int) error {
	return badAPK(fmt.Errorf("apk: parse: entry %s missing", loadEntries[i]))
}

func (a *Archive) open(data []byte) error {
	if err := a.readDirectory(data); err != nil {
		return badAPK(fmt.Errorf("apk: parse: not a zip archive: %w", err))
	}

	// Bound the total decode size before anything is allocated for the
	// load-bearing entries.
	var total uint64
	for i := range a.files {
		f := &a.files[i]
		if !f.found {
			continue
		}
		// Per-entry bound before summing: the declared sizes are
		// attacker-controlled zip64 fields, and two ~2^63 declarations
		// would wrap the uint64 total right past the aggregate check
		// below (and then panic slicing the arena).
		if f.usize > MaxDecodedBytes {
			if a.setErr == nil {
				a.setErr = oversized(i, f)
			}
			continue
		}
		total += f.usize
	}
	if a.setErr != nil {
		return nil
	}
	// total cannot overflow: each addend was individually bounded above.
	if total > MaxDecodedBytes {
		a.setErr = badAPK(fmt.Errorf("%w (%d > %d)", ErrOversized, total, MaxDecodedBytes))
		return nil
	}
	for i := range a.files {
		if !a.files[i].found {
			a.setErr = missing(i)
			break
		}
	}
	return nil
}

// inflate decompresses the given entries into the arena, after what an
// earlier call put there, and sub-slices their payloads out of it. The
// arena grows at most once a call, by the directory's sizes, so there are
// no io.ReadAll growth copies. Several entries at once need the whole set
// sound — the aggregate bound caps the arena; one needs only itself present
// and bounded.
func (a *Archive) inflate(entries ...int) error {
	if len(entries) > 1 && a.setErr != nil {
		return a.setErr
	}
	total := 0
	for _, i := range entries {
		f := &a.files[i]
		if !f.found {
			return missing(i)
		}
		if f.usize > MaxDecodedBytes {
			return oversized(i, f)
		}
		total += int(f.usize)
	}
	start := len(a.arena)
	a.arena = slices.Grow(a.arena, total)[:start+total]
	arena := a.arena[start:]
	off := 0
	for _, i := range entries {
		n := int(a.files[i].usize)
		dst := arena[off : off+n : off+n]
		off += n
		if err := a.files[i].read(loadEntries[i], dst); err != nil {
			return badAPK(fmt.Errorf("apk: parse: %w", err))
		}
		a.payloads[i] = dst
	}
	return nil
}

// payload returns entry i's decompressed bytes, inflating it alone unless
// an arena inflate already holds it.
func (a *Archive) payload(i int) ([]byte, error) {
	if a.payloads[i] == nil {
		if err := a.inflate(i); err != nil {
			return nil, err
		}
	}
	return a.payloads[i], nil
}

// Manifest decodes AndroidManifest.xml. It depends on that entry alone:
// the manifest-only pre-screen never touches the others.
func (a *Archive) Manifest() (*manifest.Manifest, error) {
	if a.manifest == nil && a.manifestErr == nil {
		a.manifest, a.manifestErr = a.decodeManifest()
	}
	return a.manifest, a.manifestErr
}

func (a *Archive) decodeManifest() (*manifest.Manifest, error) {
	xml, err := a.payload(entryManifest)
	if err != nil {
		return nil, err
	}
	m, err := a.manifests.Decode(xml)
	if err != nil {
		return nil, badAPK(fmt.Errorf("apk: parse: %w", err))
	}
	return m, nil
}

// Dex decodes classes.dex. Only the tools that analyse code ask for it;
// the vet path holds the entry's directory record to setErr and never
// reads its bytes.
func (a *Archive) Dex() (*dex.File, error) {
	if a.dex == nil && a.dexErr == nil {
		a.dex, a.dexErr = a.decodeDex()
	}
	return a.dex, a.dexErr
}

func (a *Archive) decodeDex() (*dex.File, error) {
	m, err := a.sound()
	if err != nil {
		return nil, err
	}
	raw, err := a.payload(entryDex)
	if err != nil {
		return nil, err
	}
	d, err := dex.Decode(raw)
	if err != nil {
		return nil, badAPK(fmt.Errorf("apk: parse %s: %w", m.Package, err))
	}
	return d, nil
}

// Program decodes assets/behavior.bin — what the emulator runs — and holds
// it to the manifest's package identity.
func (a *Archive) Program() (*behavior.Program, error) {
	if a.program == nil && a.programErr == nil {
		a.program, a.programErr = a.decodeProgram()
	}
	return a.program, a.programErr
}

func (a *Archive) decodeProgram() (*behavior.Program, error) {
	m, err := a.sound()
	if err != nil {
		return nil, err
	}
	raw, err := a.payload(entryProgram)
	if err != nil {
		return nil, err
	}
	p, err := a.programs.Decode(raw)
	if err != nil {
		return nil, badAPK(fmt.Errorf("apk: parse %s: %w", m.Package, err))
	}
	if p.PackageName != m.Package {
		return nil, badAPK(fmt.Errorf("apk: parse: manifest package %s != program package %s",
			m.Package, p.PackageName))
	}
	return p, nil
}

// sound is the precondition Program and Dex share: the load-bearing set is
// complete and bounded, and the manifest, which names the app, decodes.
func (a *Archive) sound() (*manifest.Manifest, error) {
	if a.setErr != nil {
		return nil, a.setErr
	}
	return a.Manifest()
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
