// Package modelstore is the model-lifecycle persistence layer: versioned,
// content-addressed model artifacts and an on-disk registry of
// generations.
//
// An Artifact is everything a market needs to cold-start a vetting
// checker bit-identically: the universe generation config plus the
// recorded Evolve seed history (the universe itself is never serialized —
// Generate and Evolve are deterministic, so replaying the seeds rebuilds
// it exactly), the model half of the configuration, the key-API
// selection, and the trained forest. The encoding is deterministic hand-laid-out
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
// changes. Version 3 is the hand-written layout of fields, which carries the
// model half of core.Config and the triage band with it; a version 1 or 2
// artifact (a reflect walk over the whole core.Config) is refused by name.
// triageMagic opens the optional trailing triage section — presence-gated
// rather than version-gated, so artifacts with and without it coexist
// under one version.
const (
	artifactMagic   = "APKMODEL"
	artifactVersion = 3
	triageMagic     = "TRI1"
)

// Artifact is one complete, self-contained model generation.
type Artifact struct {
	// UniverseCfg and EvolveSeeds reconstruct the framework universe:
	// Generate(UniverseCfg) then Evolve(seed) per recorded seed, which is
	// bit-identical to the universe the model was trained on.
	UniverseCfg framework.Config
	EvolveSeeds []int64

	// Model is the model half of the configuration the checker runs under,
	// triage band included. Where a node keeps its verdicts is its own
	// business (core.NodeConfig), so no artifact carries it.
	Model core.ModelConfig

	// Selection is the key-API selection the extractor and hook registry
	// are built over.
	Selection features.Selection

	// Forest is the trained classifier.
	Forest *ml.RandomForest

	// Triage is the optional tier-1 manifest-only linear scorer; nil when
	// the generation has none.
	Triage *ml.Linear
}

// Snapshot captures a checker's serving generation as an artifact.
func Snapshot(ck *core.Checker) (*Artifact, error) {
	parts := ck.Parts()
	if parts.Model == nil || !parts.Model.Trained() {
		return nil, fmt.Errorf("modelstore: checker has no trained model")
	}
	return FromParts(parts, ck.Config().ModelConfig)
}

// FromParts assembles an artifact from explicit trained parts and the
// model config they serve under (the lifecycle trainer's path, where the
// parts exist before any checker serves them).
func FromParts(parts core.ModelParts, model core.ModelConfig) (*Artifact, error) {
	if parts.Universe == nil || parts.Selection == nil || parts.Model == nil {
		return nil, fmt.Errorf("modelstore: incomplete model parts")
	}
	return &Artifact{
		UniverseCfg: parts.Universe.Config(),
		EvolveSeeds: parts.Universe.EvolveHistory(),
		Model:       model,
		Selection:   *parts.Selection,
		Forest:      parts.Model,
		Triage:      parts.Triage,
	}, nil
}

// fields lists the artifact's leading sections, in encoding order, for
// both directions of its codec: the universe config, the evolve seeds, the
// model config (core.ModelConfig.Fields), then the selection.
func (a *Artifact) fields(f wire.Fields) {
	u := &a.UniverseCfg
	f.I64(&u.Seed)
	for _, n := range []*int{&u.NumAPIs, &u.NumPermissions, &u.NumIntents,
		&u.MaliceSignalCount, &u.BenignCommonCount, &u.NegativeCommonCnt, &u.SharedHeavyCount, &u.BenignNicheCount,
		&u.RestrictedAPICount, &u.SensitiveAPICount, &u.SignalRestrictedOverlap, &u.SignalSensitiveOverlap,
		&u.DependentAPICount, &u.BaseLevel} {
		f.Int(n)
	}
	f.F64(&u.HiddenFraction)
	wire.Slice(f, &a.EvolveSeeds, "evolve seed", 8, f.I64)

	a.Model.Fields(f)

	s := &a.Selection
	f.F64(&s.Config.SRCThreshold)
	f.F64(&s.Config.SeldomFraction)
	for _, ids := range []*[]framework.APIID{&s.SetC, &s.SetP, &s.SetS, &s.Keys} {
		wire.Slice(f, ids, "API id", 4, func(id *framework.APIID) { f.I32((*int32)(id)) })
	}
	wire.Slice(f, &s.SRC, "SRC", 8, f.F64)
}

// Encode serializes the artifact deterministically: encoding the same
// artifact twice yields identical bytes, and Decode(Encode(a)) re-encodes
// to the same bytes — the property content addressing rests on.
func (a *Artifact) Encode() ([]byte, error) {
	if a.Forest == nil {
		return nil, fmt.Errorf("modelstore: artifact has no forest")
	}
	forest, err := a.Forest.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	e := wire.Encoder{B: binary.LittleEndian.AppendUint32([]byte(artifactMagic), artifactVersion)}
	a.fields(&e)
	buf := binary.LittleEndian.AppendUint32(e.B, uint32(len(forest)))
	buf = append(buf, forest...)
	if a.Triage != nil {
		// Optional trailing triage section: magic, section length, then the
		// linear model.
		sec := a.Triage.AppendBinary(nil)
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
	a.fields(wire.Decoder{R: &r})
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
		return a, nil // no triage model: nothing follows the forest
	}
	// Whatever follows the forest must be exactly one triage section;
	// trailing bytes are still corruption, not slack.
	if string(r.Bytes(len(triageMagic))) != triageMagic {
		return nil, fmt.Errorf("%w: trailing bytes are not a triage section", ErrCorruptArtifact)
	}
	if tLen := r.U32(); int(tLen) != r.Len() {
		return nil, fmt.Errorf("%w: triage section claims %d bytes, %d remain", ErrCorruptArtifact, tLen, r.Len())
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
	ex, err := features.NewExtractor(u, sel.Keys, a.Model.Mode)
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

// Instantiate cold-starts a serving checker from the artifact under the
// caller's node config. Verdicts are bit-identical to the checker the
// artifact snapshotted — same universe, same keys, same forest, same model
// config, and content-derived Monkey seeds — whatever either node's config.
func (a *Artifact) Instantiate(node core.NodeConfig) (*core.Checker, error) {
	parts, err := a.Parts()
	if err != nil {
		return nil, err
	}
	return core.NewFromParts(parts, core.Config{ModelConfig: a.Model, NodeConfig: node})
}
