// Package modelstore is the on-disk registry of model generations:
// content-addressed artifacts (core.Artifact, the APKMODEL codec) under
// <dir>/gens/<digest>.apkmodel with a JSON manifest (<digest>.json)
// recording lineage (parent digest), the corpus fingerprint, the train
// report, and shadow-evaluation quality metrics; <dir>/CURRENT names the
// serving generation so a restarted tmarket can cold-start from the
// latest good model. All writes are atomic (temp file + rename), and Load
// checks a stored file against the digest it was asked for.
package modelstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"apichecker/internal/core"
)

// Artifact is the model artifact the registry stores.
type Artifact = core.Artifact

// Snapshot decodes a checker's serving generation (core.Snapshot).
func Snapshot(ck *core.Checker) (*Artifact, error) { return core.Snapshot(ck) }

// Decode parses an encoded artifact (core.Decode).
func Decode(data []byte) (*Artifact, error) { return core.Decode(data) }

// Registry errors. A corrupt stored file — bytes that do not hash to their
// digest or do not decode, a manifest that does not parse — is the codec's
// core.ErrCorruptArtifact.
var (
	// ErrNotFound marks a digest the registry does not hold.
	ErrNotFound = errors.New("modelstore: generation not found")
	// ErrNoCurrent marks a registry with no serving generation recorded
	// (a fresh model dir before the first snapshot).
	ErrNoCurrent = errors.New("modelstore: no current generation")
)

// Quality is the shadow-evaluation scorecard recorded with a generation:
// how the model performed on the held-out slice it was gated on.
type Quality struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	AUC       float64 `json:"auc"`
	// Holdout is how many held-out apps the metrics were computed over.
	Holdout int `json:"holdout"`
}

// Manifest is the registry's sidecar record for one generation: lineage,
// provenance, and quality. The artifact itself is content-addressed; the
// manifest is everything about it that is not the model.
type Manifest struct {
	// Digest is the artifact's content address (hex sha256 of its
	// encoding).
	Digest string `json:"digest"`
	// Parent is the digest of the generation this one was evolved from;
	// empty for a root generation.
	Parent string `json:"parent,omitempty"`
	// CreatedAt is when the generation was stored.
	CreatedAt time.Time `json:"created_at"`
	// CorpusFingerprint identifies the labelled corpus the generation was
	// trained on.
	CorpusFingerprint string `json:"corpus_fingerprint,omitempty"`
	// TrainReport is the training round's accounting.
	TrainReport *core.TrainReport `json:"train_report,omitempty"`
	// Quality is the shadow-evaluation scorecard; nil when the generation
	// was stored without one (e.g. the initial snapshot).
	Quality *Quality `json:"quality,omitempty"`
	// Note is free-form provenance ("initial snapshot", "promoted",
	// "rollback target", ...).
	Note string `json:"note,omitempty"`
}

// Registry is an on-disk store of model generations:
//
//	<dir>/gens/<digest>.apkmodel   the encoded artifact
//	<dir>/gens/<digest>.json       its manifest
//	<dir>/CURRENT                  digest of the serving generation
//
// Every write is atomic (temp file + rename in the same directory), so a
// crash mid-write never leaves a half-visible generation, and CURRENT
// always names a fully stored artifact.
type Registry struct {
	dir string
}

// Open opens (creating if needed) a registry rooted at dir.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("modelstore: empty registry dir")
	}
	if err := os.MkdirAll(filepath.Join(dir, "gens"), 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	return &Registry{dir: dir}, nil
}

// Dir returns the registry root.
func (r *Registry) Dir() string { return r.dir }

func (r *Registry) artifactPath(digest string) string {
	return filepath.Join(r.dir, "gens", digest+".apkmodel")
}

func (r *Registry) manifestPath(digest string) string {
	return filepath.Join(r.dir, "gens", digest+".json")
}

// Put stores an artifact and its manifest, returning the artifact's
// digest. The manifest's Digest and CreatedAt are filled in; storing a
// digest the registry already holds just refreshes the manifest.
func (r *Registry) Put(a *Artifact, m Manifest) (string, error) {
	data, err := a.Encode()
	if err != nil {
		return "", err
	}
	dig := core.ArtifactDigest(data)
	m.Digest = dig
	if m.CreatedAt.IsZero() {
		m.CreatedAt = time.Now().UTC()
	}
	mdata, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("modelstore: manifest: %w", err)
	}
	if err := atomicWrite(r.artifactPath(dig), data); err != nil {
		return "", err
	}
	if err := atomicWrite(r.manifestPath(dig), append(mdata, '\n')); err != nil {
		return "", err
	}
	return dig, nil
}

// SetCurrent marks a stored generation as the serving one. The digest
// must already be in the registry.
func (r *Registry) SetCurrent(digest string) error {
	if _, err := os.Stat(r.artifactPath(digest)); err != nil {
		return fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	return atomicWrite(filepath.Join(r.dir, "CURRENT"), []byte(digest+"\n"))
}

// CurrentDigest returns the serving generation's digest, or ErrNoCurrent.
func (r *Registry) CurrentDigest() (string, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, "CURRENT"))
	if errors.Is(err, os.ErrNotExist) {
		return "", ErrNoCurrent
	}
	if err != nil {
		return "", fmt.Errorf("modelstore: %w", err)
	}
	dig := strings.TrimSpace(string(data))
	if dig == "" {
		return "", ErrNoCurrent
	}
	return dig, nil
}

// Load returns a stored generation's artifact and manifest by digest,
// refusing with core.ErrCorruptArtifact bytes that do not hash to it.
func (r *Registry) Load(digest string) (*Artifact, Manifest, error) {
	data, err := r.ArtifactBytes(digest)
	if err != nil {
		return nil, Manifest{}, err
	}
	if got := core.ArtifactDigest(data); got != digest {
		return nil, Manifest{}, fmt.Errorf("%w: %.12s holds the bytes of %.12s", core.ErrCorruptArtifact, digest, got)
	}
	a, err := core.Decode(data)
	if err != nil {
		return nil, Manifest{}, err
	}
	m, err := r.Manifest(digest)
	if err != nil {
		return nil, Manifest{}, err
	}
	return a, m, nil
}

// ArtifactBytes returns a stored generation's raw encoded artifact by
// digest — the model-distribution read path: a coordinator serves these
// bytes verbatim in answer to a node's model request on its claim stream,
// and the content address lets the puller verify integrity without
// trusting the transport.
func (r *Registry) ArtifactBytes(digest string) ([]byte, error) {
	data, err := os.ReadFile(r.artifactPath(digest))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	return data, nil
}

// Manifest returns a stored generation's manifest by digest.
func (r *Registry) Manifest(digest string) (Manifest, error) {
	data, err := os.ReadFile(r.manifestPath(digest))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("modelstore: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest for %s: %v", core.ErrCorruptArtifact, digest, err)
	}
	return m, nil
}

// Current loads the serving generation.
func (r *Registry) Current() (*Artifact, Manifest, error) {
	dig, err := r.CurrentDigest()
	if err != nil {
		return nil, Manifest{}, err
	}
	return r.Load(dig)
}

// List returns every stored generation's manifest, oldest first (ties
// broken by digest so the order is stable).
func (r *Registry) List() ([]Manifest, error) {
	ents, err := os.ReadDir(filepath.Join(r.dir, "gens"))
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	var out []Manifest
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		m, err := r.Manifest(strings.TrimSuffix(name, ".json"))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].Digest < out[j].Digest
	})
	return out, nil
}

// atomicWrite writes data to path via a temp file + rename in the same
// directory, so readers never observe a partial file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("modelstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	return nil
}
