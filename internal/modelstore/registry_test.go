package modelstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"apichecker/internal/core"
)

func TestRegistryPutCurrentList(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CurrentDigest(); !errors.Is(err, ErrNoCurrent) {
		t.Fatalf("fresh registry current: %v", err)
	}

	a1 := randomArtifact(t, 1)
	d1, err := r.Put(a1, Manifest{Note: "initial", CreatedAt: time.Unix(100, 0).UTC()})
	if err != nil {
		t.Fatal(err)
	}
	a2 := randomArtifact(t, 2)
	d2, err := r.Put(a2, Manifest{
		Parent:            d1,
		Note:              "promoted",
		CreatedAt:         time.Unix(200, 0).UTC(),
		CorpusFingerprint: "fp-2",
		Quality:           &Quality{Precision: 0.98, Recall: 0.96, F1: 0.97, AUC: 0.99, Holdout: 120},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("distinct artifacts share a digest")
	}

	if err := r.SetCurrent(d2); err != nil {
		t.Fatal(err)
	}
	cur, err := r.CurrentDigest()
	if err != nil || cur != d2 {
		t.Fatalf("current = %q, %v; want %q", cur, err, d2)
	}

	got, m, err := r.Current()
	if err != nil {
		t.Fatal(err)
	}
	gd, err := got.Digest()
	if err != nil || gd != d2 {
		t.Fatalf("loaded current digest %q, %v", gd, err)
	}
	if m.Parent != d1 || m.Quality == nil || m.Quality.Holdout != 120 {
		t.Fatalf("manifest round trip: %+v", m)
	}

	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Digest != d1 || list[1].Digest != d2 {
		t.Fatalf("list = %+v", list)
	}

	// Unknown digests are typed errors.
	if err := r.SetCurrent("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetCurrent unknown: %v", err)
	}
	if _, _, err := r.Load("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load unknown: %v", err)
	}
}

func TestRegistryCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dig, err := r.Put(randomArtifact(t, 3), Manifest{})
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt manifest JSON: typed error, no panic.
	if err := os.WriteFile(filepath.Join(dir, "gens", dig+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Manifest(dig); !errors.Is(err, core.ErrCorruptArtifact) {
		t.Fatalf("corrupt manifest: %v", err)
	}

	// Truncated artifact file: typed error through Load.
	path := filepath.Join(dir, "gens", dig+".apkmodel")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Load(dig); !isTyped(err) {
		t.Fatalf("truncated artifact file: %v", err)
	}
}

// TestLoadRefusesBytesUnderAnotherDigest: a stored file is checked against
// the digest it is asked for, so B's bytes under A's name are corrupt, not
// generation B served as A.
func TestLoadRefusesBytesUnderAnotherDigest(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	da, err := r.Put(randomArtifact(t, 1), Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := r.Put(randomArtifact(t, 2), Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "gens", db+".apkmodel"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gens", da+".apkmodel"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Load(da); !errors.Is(err, core.ErrCorruptArtifact) {
		t.Fatalf("Load(A) over B's bytes: %v, want ErrCorruptArtifact", err)
	}
	if _, _, err := r.Load(db); err != nil {
		t.Fatalf("Load(B): %v", err)
	}
}
