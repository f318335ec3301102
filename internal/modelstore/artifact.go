// Package modelstore is the model-lifecycle persistence layer: versioned,
// content-addressed model artifacts and an on-disk registry of
// generations.
//
// An Artifact is everything a market needs to cold-start a vetting
// checker bit-identically: the universe generation config plus the
// recorded Evolve seed history (the universe itself is never serialized —
// Generate and Evolve are deterministic, so replaying the seeds rebuilds
// it exactly), the deployment config, the key-API selection, and the
// trained forest. The encoding is deterministic hand-laid-out
// little-endian binary — the same parts always produce the same bytes —
// so artifacts are content-addressed by their sha256 digest, and a
// round-tripped checker produces bit-identical verdicts.
//
// The Registry stores artifacts under <dir>/gens/<digest>.apkmodel with a
// JSON manifest (<digest>.json) recording lineage (parent digest), the
// corpus fingerprint, the train report, and shadow-evaluation quality
// metrics; <dir>/CURRENT names the serving generation so a restarted
// tmarket can cold-start from the latest good model. All writes are
// atomic (temp file + rename).
package modelstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"

	"apichecker/internal/core"
	"apichecker/internal/features"
	"apichecker/internal/framework"
	"apichecker/internal/ml"
	"apichecker/internal/wire"
)

// Typed decode failures. Decoding never panics: corrupt or truncated
// payloads — at any byte — surface as errors wrapping one of these.
var (
	// ErrFormat marks a payload that is not a model artifact at all (bad
	// magic) or one written by an incompatible format version.
	ErrFormat = errors.New("modelstore: not a model artifact (bad magic or version)")
	// ErrTruncated marks a structurally valid prefix that ends early.
	ErrTruncated = errors.New("modelstore: truncated artifact")
	// ErrCorruptArtifact marks a payload that fails structural validation
	// (impossible counts, trailing garbage, an invalid embedded forest).
	ErrCorruptArtifact = errors.New("modelstore: corrupt artifact")
)

// artifactMagic opens every artifact; artifactVersion guards layout
// changes. Version 2 is version 1 less core.Config's Lanes field, which the
// reflect walk used to encode; a version 1 artifact is refused by name.
// triageMagic opens the optional trailing triage section — presence-gated
// rather than version-gated, so artifacts with and without it coexist
// under one version.
const (
	artifactMagic   = "APKMODEL"
	artifactVersion = 2
	triageMagic     = "TRI1"
)

// maxCount bounds decoded element counts whatever the payload size. Every
// declared count is additionally checked against the bytes that remain
// (wire's Count) before anything is allocated at that size.
const maxCount = 1 << 26

// Artifact is one complete, self-contained model generation.
type Artifact struct {
	// UniverseCfg and EvolveSeeds reconstruct the framework universe:
	// Generate(UniverseCfg) then Evolve(seed) per recorded seed, which is
	// bit-identical to the universe the model was trained on.
	UniverseCfg framework.Config
	EvolveSeeds []int64

	// Cfg is the deployment configuration the checker runs under.
	Cfg core.Config

	// Selection is the key-API selection the extractor and hook registry
	// are built over.
	Selection features.Selection

	// Forest is the trained classifier.
	Forest *ml.RandomForest

	// Triage is the optional tier-1 manifest-only linear scorer; nil for
	// artifacts written before the tier existed (they decode unchanged —
	// the triage section is a trailing optional extension, not a layout
	// change). When present it is encoded together with the uncertainty
	// band from Cfg.TriageLo/TriageHi, which are excluded from the
	// reflect-walked Cfg encoding (tagged artifact:"-") precisely so old
	// digests stay stable.
	Triage *ml.Linear
}

// Snapshot captures a checker's serving generation as an artifact.
func Snapshot(ck *core.Checker) (*Artifact, error) {
	parts := ck.Parts()
	if parts.Model == nil || !parts.Model.Trained() {
		return nil, fmt.Errorf("modelstore: checker has no trained model")
	}
	return &Artifact{
		UniverseCfg: parts.Universe.Config(),
		EvolveSeeds: parts.Universe.EvolveHistory(),
		Cfg:         ck.Config(),
		Selection:   *parts.Selection,
		Forest:      parts.Model,
		Triage:      parts.Triage,
	}, nil
}

// FromParts assembles an artifact from explicit trained parts and the
// deployment config (the lifecycle trainer's path, where the parts exist
// before any checker serves them).
func FromParts(parts core.ModelParts, cfg core.Config) (*Artifact, error) {
	if parts.Universe == nil || parts.Selection == nil || parts.Model == nil {
		return nil, fmt.Errorf("modelstore: incomplete model parts")
	}
	return &Artifact{
		UniverseCfg: parts.Universe.Config(),
		EvolveSeeds: parts.Universe.EvolveHistory(),
		Cfg:         cfg,
		Selection:   *parts.Selection,
		Forest:      parts.Model,
		Triage:      parts.Triage,
	}, nil
}

// Encode serializes the artifact deterministically: encoding the same
// artifact twice yields identical bytes, and Decode(Encode(a)) re-encodes
// to the same bytes — the property content addressing rests on.
func (a *Artifact) Encode() ([]byte, error) {
	if a.Forest == nil {
		return nil, fmt.Errorf("modelstore: artifact has no forest")
	}
	buf := append([]byte(nil), artifactMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, artifactVersion)
	var err error
	if buf, err = appendValue(buf, reflect.ValueOf(a.UniverseCfg)); err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.EvolveSeeds)))
	for _, s := range a.EvolveSeeds {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s))
	}
	if buf, err = appendValue(buf, reflect.ValueOf(a.Cfg)); err != nil {
		return nil, err
	}
	if buf, err = appendValue(buf, reflect.ValueOf(a.Selection)); err != nil {
		return nil, err
	}
	forest, err := a.Forest.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(forest)))
	buf = append(buf, forest...)
	if a.Triage != nil {
		// Optional trailing triage section: magic, section length, the
		// uncertainty band (which is excluded from the Cfg walk), then the
		// linear model. Written only when a triage model exists, so
		// triage-less artifacts are byte-identical to the pre-tier format.
		sec := wire.AppendF64(nil, a.Cfg.TriageLo)
		sec = wire.AppendF64(sec, a.Cfg.TriageHi)
		sec = a.Triage.AppendBinary(sec)
		buf = append(buf, triageMagic...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sec)))
		buf = append(buf, sec...)
	}
	return buf, nil
}

// Digest returns the artifact's content address: hex sha256 of its
// canonical encoding.
func (a *Artifact) Digest() (string, error) {
	data, err := a.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Decode parses an encoded artifact. The whole payload must be consumed —
// trailing bytes are corruption, not slack. Failures wrap ErrFormat,
// ErrTruncated, or ErrCorruptArtifact and never panic.
func Decode(data []byte) (*Artifact, error) {
	if len(data) < len(artifactMagic)+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	r := wire.NewReader(data)
	if string(r.Bytes(len(artifactMagic))) != artifactMagic {
		return nil, ErrFormat
	}
	if v := r.U32(); v != artifactVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrFormat, v, artifactVersion)
	}

	a := &Artifact{}
	readValue(&r, reflect.ValueOf(&a.UniverseCfg).Elem())
	nSeeds := r.U32()
	if nSeeds > maxCount {
		r.Fail(fmt.Errorf("%d evolve seeds", nSeeds))
	}
	a.EvolveSeeds = make([]int64, r.Count(uint64(nSeeds), "evolve seed", 8))
	for i := range a.EvolveSeeds {
		a.EvolveSeeds[i] = int64(r.U64())
	}
	readValue(&r, reflect.ValueOf(&a.Cfg).Elem())
	readValue(&r, reflect.ValueOf(&a.Selection).Elem())
	// A section length past the end is a lie (ErrCorruptArtifact), where
	// running out of bytes inside a field is ErrTruncated.
	fLen := int(r.U32())
	if fLen > r.Len() {
		r.Fail(fmt.Errorf("forest section claims %d bytes, %d remain", fLen, r.Len()))
	}
	forest := r.Bytes(fLen)
	if err := r.Err(); err != nil {
		return nil, artifactError(err)
	}
	var err error
	if a.Forest, err = decodeSection(forest, ml.DecodeForestBinary); err != nil {
		return nil, err
	}
	if r.Len() == 0 {
		return a, nil // pre-triage artifact: nothing follows the forest
	}
	// Whatever follows the forest must be exactly one triage section;
	// trailing bytes are still corruption, not slack.
	if string(r.Bytes(len(triageMagic))) != triageMagic {
		return nil, fmt.Errorf("%w: trailing bytes are not a triage section", ErrCorruptArtifact)
	}
	if tLen := r.U32(); int(tLen) != r.Len() {
		return nil, fmt.Errorf("%w: triage section claims %d bytes, %d remain", ErrCorruptArtifact, tLen, r.Len())
	}
	a.Cfg.TriageLo, a.Cfg.TriageHi = r.F64(), r.F64()
	if err := r.Err(); err != nil {
		return nil, artifactError(err)
	}
	if a.Triage, err = decodeSection(r.Rest(), ml.DecodeLinearBinary); err != nil {
		return nil, err
	}
	return a, nil
}

// decodeSection decodes a forest or triage section, which must use up
// every byte of it.
func decodeSection[T any](sec []byte, decode func([]byte) (*T, int, error)) (*T, error) {
	v, n, err := decode(sec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptArtifact, err)
	}
	if n != len(sec) {
		return nil, fmt.Errorf("%w: section decoded %d of %d bytes", ErrCorruptArtifact, n, len(sec))
	}
	return v, nil
}

// artifactError types a reader failure: running out of bytes is
// ErrTruncated, anything else the bytes say is ErrCorruptArtifact.
func artifactError(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	return fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
}

// Parts reconstructs the trained parts: the universe is rebuilt by
// replaying the recorded generation (deterministic, so bit-identical to
// the training universe), and the extractor is rebuilt over the selection.
// The returned parts carry the artifact's digest, so a checker assembled
// from them is attributable to this artifact.
func (a *Artifact) Parts() (core.ModelParts, error) {
	u, err := framework.Rebuild(a.UniverseCfg, a.EvolveSeeds)
	if err != nil {
		return core.ModelParts{}, fmt.Errorf("modelstore: rebuild universe: %w", err)
	}
	sel := a.Selection
	ex, err := features.NewExtractor(u, sel.Keys, a.Cfg.Mode)
	if err != nil {
		return core.ModelParts{}, fmt.Errorf("modelstore: rebuild extractor: %w", err)
	}
	dig, err := a.Digest()
	if err != nil {
		return core.ModelParts{}, err
	}
	return core.ModelParts{
		Universe:  u,
		Selection: &sel,
		Extractor: ex,
		Model:     a.Forest,
		Digest:    dig,
		Triage:    a.Triage,
	}, nil
}

// Instantiate cold-starts a serving checker from the artifact. Verdicts
// are bit-identical to the checker the artifact snapshotted — same
// universe, same keys, same forest, and content-derived Monkey seeds.
func (a *Artifact) Instantiate() (*core.Checker, error) {
	parts, err := a.Parts()
	if err != nil {
		return nil, err
	}
	return core.NewFromParts(parts, a.Cfg)
}

// appendValue deterministically encodes a value by walking its type:
// struct fields in declaration order, integers as little-endian u64,
// floats as IEEE bit patterns, strings and slices length-prefixed,
// pointers as a presence byte plus the element. Walking the type (rather
// than hand-listing fields per struct) keeps the codec in lockstep with
// the config structs it serializes — a new field changes the encoding,
// which changes digests, which is exactly what content addressing wants.
func appendValue(buf []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		return append(buf, b), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int())), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(buf, v.Uint()), nil
	case reflect.Float32, reflect.Float64:
		return wire.AppendF64(buf, v.Float()), nil
	case reflect.String:
		return wire.AppendString32(buf, v.String()), nil
	case reflect.Slice:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Len()))
		var err error
		for i := 0; i < v.Len(); i++ {
			if buf, err = appendValue(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, 0), nil
		}
		return appendValue(append(buf, 1), v.Elem())
	case reflect.Struct:
		var err error
		for i := 0; i < v.NumField(); i++ {
			// artifact:"-" excludes a field from the walk — used by fields
			// that travel in a dedicated optional section instead, so adding
			// them does not change the digests of existing artifacts.
			if v.Type().Field(i).Tag.Get("artifact") == "-" {
				continue
			}
			if buf, err = appendValue(buf, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("modelstore: cannot encode %s", v.Type())
	}
}

// readValue decodes into a settable value, mirroring appendValue exactly;
// a failure is left on r.
func readValue(r *wire.Reader, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := int64(r.U64())
		if v.OverflowInt(n) {
			r.Fail(fmt.Errorf("%d overflows %s", n, v.Type()))
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := r.U64()
		if v.OverflowUint(n) {
			r.Fail(fmt.Errorf("%d overflows %s", n, v.Type()))
		}
		v.SetUint(n)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(r.F64())
	case reflect.String:
		n := r.U32()
		if n > maxCount {
			r.Fail(fmt.Errorf("string of %d bytes", n))
		}
		v.SetString(r.String(int(n)))
	case reflect.Slice:
		n := r.U32()
		if n > maxCount {
			r.Fail(fmt.Errorf("slice of %d elements", n))
		}
		k := r.Count(uint64(n), "slice element", minEncodedSize(v.Type().Elem()))
		s := reflect.MakeSlice(v.Type(), k, k)
		for i := range k {
			readValue(r, s.Index(i))
		}
		v.Set(s)
	case reflect.Pointer:
		if r.Bool() {
			p := reflect.New(v.Type().Elem())
			readValue(r, p.Elem())
			v.Set(p)
		} else {
			v.SetZero()
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("artifact") != "-" {
				readValue(r, v.Field(i))
			}
		}
	default:
		r.Fail(fmt.Errorf("cannot decode %s", v.Type()))
	}
}

// minEncodedSize is the fewest bytes appendValue can write for a value of
// type t — what a declared slice count is divided into. It never returns
// zero: a type the codec cannot encode sizes as one byte (readValue refuses
// it on the first element), and so does a struct with no encoded fields.
func minEncodedSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return 8
	case reflect.String, reflect.Slice:
		return 4
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Tag.Get("artifact") != "-" {
				n += minEncodedSize(t.Field(i).Type)
			}
		}
		return max(n, 1)
	default: // bool, pointer presence byte
		return 1
	}
}
