package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Hooks for the package store_test tests, which reach the HTTP tier.

var TestRow = testRow

// LieInSnapshot rewrites one digest cell of dir's partials.vagg — the
// first session's first arm, baseline SSIM — to v, reseals the envelope
// with sealEnvelope so its checksum verifies, and returns the file's new
// bytes. The segment layout it records is left as it was.
func LieInSnapshot(t testing.TB, dir string, v float64) []byte {
	t.Helper()
	path := filepath.Join(dir, partialsName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := openEnvelope(partialsMagic, raw)
	if !ok {
		t.Fatalf("%s does not verify", partialsName)
	}
	var pf partialsFile
	if err := json.Unmarshal(payload, &pf); err != nil {
		t.Fatal(err)
	}
	if len(pf.Sessions) == 0 || len(pf.Sessions[0].Arms) == 0 {
		t.Fatalf("%s holds no arm to rewrite", partialsName)
	}
	cell := &pf.Sessions[0].Arms[0].Baseline[0]
	if *cell == v {
		t.Fatalf("%s already holds %v in the rewritten cell", partialsName, v)
	}
	*cell = v
	payload, err = json.Marshal(pf)
	if err != nil {
		t.Fatal(err)
	}
	lie := sealEnvelope(partialsMagic, payload)
	if _, ok := openEnvelope(partialsMagic, lie); !ok {
		t.Fatal("the rewritten snapshot does not verify")
	}
	return lie
}
