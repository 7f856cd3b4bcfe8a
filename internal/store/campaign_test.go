package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"veritas/internal/engine"
)

func TestOpenCampaignFingerprint(t *testing.T) {
	dir := t.TempDir()
	fp := []byte(`{"Seed":1,"Chunks":120}`)

	st, err := OpenCampaign(dir, Options{}, fp)
	if err != nil {
		t.Fatalf("fresh campaign: %v", err)
	}
	if err := st.Append(engine.SessionRow{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, CampaignMetaFile)); err != nil {
		t.Fatalf("fingerprint not recorded: %v", err)
	}

	// Same fingerprint, even reformatted: accepted.
	st, err = OpenCampaign(dir, Options{}, []byte(`{ "Chunks": 120, "Seed": 1 }`))
	if err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
	st.Close()

	// Different fingerprint: refused with the sentinel error.
	other := []byte(`{"Seed":2,"Chunks":120}`)
	if _, err := OpenCampaign(dir, Options{}, other); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("mismatched fingerprint: err = %v, want ErrCampaignMismatch", err)
	}

	// Several forms: the store matches its own spelling in any position,
	// and a fresh store records the first.
	st, err = OpenCampaign(dir, Options{}, other, fp)
	if err != nil {
		t.Fatalf("store's own form listed second: %v", err)
	}
	st.Close()
	fresh := t.TempDir()
	st, err = OpenCampaign(fresh, Options{}, other, fp)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got, err := os.ReadFile(filepath.Join(fresh, CampaignMetaFile)); err != nil || string(got) != string(other) {
		t.Errorf("fresh store recorded %q (%v), want the first form %q", got, err, other)
	}
}

func TestOpenCampaignNilFingerprintIsPlainOpen(t *testing.T) {
	dir := t.TempDir()
	// No form at all is a plain Open.
	st, err := OpenCampaign(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, CampaignMetaFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("nil fingerprint wrote %s: %v", CampaignMetaFile, err)
	}
}

func TestOpenCampaignRejectsInvalidFingerprint(t *testing.T) {
	if _, err := OpenCampaign(t.TempDir(), Options{}, []byte(`{broken`)); err == nil {
		t.Fatal("invalid JSON fingerprint accepted")
	}
}

func TestOpenCampaignReadOnlyNeverWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(engine.SessionRow{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// A read-only campaign open of a store without a fingerprint must
	// fail rather than create one.
	if _, err := OpenCampaign(dir, Options{ReadOnly: true}, []byte(`{}`)); err == nil {
		t.Fatal("read-only open of a fingerprint-less store accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, CampaignMetaFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read-only open wrote %s", CampaignMetaFile)
	}
}
