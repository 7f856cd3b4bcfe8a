package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"veritas/internal/engine/enginetest"
)

// shardStore creates a store carrying shard metadata and the given
// rows, closed and ready to fold.
func shardStore(t *testing.T, meta ShardMeta, rows []int, scenario string) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rows {
		if err := s.Append(testRow(i, scenario)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteShardMeta(dir, meta); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFoldOrdersByShardIndex pins the determinism fix for duplicate
// keys across shards: last-write-wins resolves by recorded shard
// index, not by the order the caller happened to list the
// directories, so every enumeration order folds byte-identically.
func TestFoldOrdersByShardIndex(t *testing.T) {
	// Both shards hold fcc-002; shard 1 computed a different outcome.
	dir0 := shardStore(t, ShardMeta{Index: 0, Count: 2}, []int{0, 1, 2}, "fcc")
	dir1 := t.TempDir()
	s, err := Create(dir1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dup := testRow(2, "fcc")
	dup.SettingA.AvgSSIM = 0.5
	for _, row := range []int{3, 4} {
		if err := s.Append(testRow(row, "fcc")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(dup); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := WriteShardMeta(dir1, ShardMeta{Index: 1, Count: 2}); err != nil {
		t.Fatal(err)
	}

	fold := func(srcs ...string) (string, []byte) {
		t.Helper()
		dst := filepath.Join(t.TempDir(), "folded")
		n, err := Fold(dst, Options{}, srcs...)
		if err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("Fold kept %d sessions, want 5", n)
		}
		ro, err := Open(dst, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()
		got, ok, err := ro.Get("fcc-002")
		if err != nil || !ok {
			t.Fatalf("folded store lost fcc-002: ok=%v err=%v", ok, err)
		}
		if got.SettingA.AvgSSIM != 0.5 {
			t.Errorf("duplicate key resolved to shard 0's record (SSIM %v), want shard 1's", got.SettingA.AvgSSIM)
		}
		return dst, enginetest.OracleJSON(t, ro.Scan, "")
	}

	_, repA := fold(dir0, dir1)
	_, repB := fold(dir1, dir0) // reversed listing: same fold
	if !bytes.Equal(repA, repB) {
		t.Fatalf("fold order changed the folded report\nA: %s\nB: %s", repA, repB)
	}
}

func TestFoldRefusesDuplicateShards(t *testing.T) {
	dirA := shardStore(t, ShardMeta{Index: 0, Count: 2}, []int{0}, "fcc")
	dirB := shardStore(t, ShardMeta{Index: 0, Count: 2}, []int{1}, "fcc")
	if _, err := Fold(filepath.Join(t.TempDir(), "out"), Options{}, dirA, dirB); err == nil ||
		!strings.Contains(err.Error(), "both claim shard") {
		t.Errorf("duplicate shard indices folded: err = %v", err)
	}
	dirC := shardStore(t, ShardMeta{Index: 1, Count: 3}, []int{2}, "fcc")
	if _, err := Fold(filepath.Join(t.TempDir(), "out"), Options{}, dirA, dirC); err == nil ||
		!strings.Contains(err.Error(), "disagree on shard count") {
		t.Errorf("mismatched shard counts folded: err = %v", err)
	}
}

// TestFoldRefusesMixedSources: one metadata-less source must not
// silently disable the shard validation for every other source.
func TestFoldRefusesMixedSources(t *testing.T) {
	dir0 := shardStore(t, ShardMeta{Index: 0, Count: 2}, []int{0}, "fcc")
	dir1 := shardStore(t, ShardMeta{Index: 1, Count: 2}, []int{1}, "fcc")
	plain := t.TempDir()
	s, err := Create(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRow(2, "fcc")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Fold(filepath.Join(t.TempDir(), "out"), Options{}, dir0, dir1, plain); err == nil ||
		!strings.Contains(err.Error(), "mixes shard stores") {
		t.Errorf("mixed shard and plain sources folded: err = %v", err)
	}
}

// TestFoldRefusesMissingShard: folding 2 of 3 shards must fail loudly
// — a partial fold under the full campaign fingerprint would serve an
// incomplete corpus as if it were the whole campaign.
func TestFoldRefusesMissingShard(t *testing.T) {
	dir0 := shardStore(t, ShardMeta{Index: 0, Count: 3}, []int{0}, "fcc")
	dir2 := shardStore(t, ShardMeta{Index: 2, Count: 3}, []int{2}, "fcc")
	if _, err := Fold(filepath.Join(t.TempDir(), "out"), Options{}, dir0, dir2); err == nil ||
		!strings.Contains(err.Error(), "missing shard(s) [1]") {
		t.Errorf("incomplete shard set folded: err = %v", err)
	}
}

// TestFoldPropagatesCampaignFingerprint: the folded store carries the
// shards' campaign.json (so it opens as the whole campaign), never
// their shard.json, and conflicting fingerprints refuse to fold.
func TestFoldPropagatesCampaignFingerprint(t *testing.T) {
	fp := []byte(`{"Seed": 7}`)
	dirs := make([]string, 2)
	for i := range dirs {
		dirs[i] = shardStore(t, ShardMeta{Index: i, Count: 2}, []int{i}, "fcc")
		if err := os.WriteFile(filepath.Join(dirs[i], CampaignMetaFile), fp, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dst := filepath.Join(t.TempDir(), "folded")
	if _, err := Fold(dst, Options{}, dirs...); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst, CampaignMetaFile))
	if err != nil || !bytes.Equal(got, fp) {
		t.Errorf("folded campaign.json = %q, %v; want the shards' fingerprint", got, err)
	}
	if _, ok, _ := ReadShardMeta(dst); ok {
		t.Error("folded store still carries shard.json")
	}
	// The folded store must open under the same fingerprint.
	s, err := OpenCampaign(dst, Options{}, fp)
	if err != nil {
		t.Fatalf("folded store refused its own fingerprint: %v", err)
	}
	s.Close()

	// Conflicting fingerprints refuse to fold.
	if err := os.WriteFile(filepath.Join(dirs[1], CampaignMetaFile), []byte(`{"Seed": 8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Fold(filepath.Join(t.TempDir(), "bad"), Options{}, dirs...); err == nil {
		t.Error("conflicting campaign fingerprints folded silently")
	}
}

func TestFoldWithoutShardMetaKeepsCallerOrder(t *testing.T) {
	// Pre-shard stores: no shard.json anywhere, so Fold degrades to
	// Merge semantics — the later-listed source wins.
	mk := func(ssim float64) string {
		dir := t.TempDir()
		s, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		row := testRow(0, "fcc")
		row.SettingA.AvgSSIM = ssim
		if err := s.Append(row); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return dir
	}
	dirA, dirB := mk(0.1), mk(0.2)
	dst := filepath.Join(t.TempDir(), "folded")
	if _, err := Fold(dst, Options{}, dirA, dirB); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dst, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	got, _, err := ro.Get("fcc-000")
	if err != nil {
		t.Fatal(err)
	}
	if got.SettingA.AvgSSIM != 0.2 {
		t.Errorf("caller-order fold kept SSIM %v, want the later source's 0.2", got.SettingA.AvgSSIM)
	}
}

func TestShardMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadShardMeta(dir); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	if err := WriteShardMeta(dir, ShardMeta{Index: 3, Count: 1}); err == nil {
		t.Error("invalid shard meta accepted")
	}
	want := ShardMeta{Index: 2, Count: 5}
	if err := WriteShardMeta(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadShardMeta(dir)
	if err != nil || !ok || got != want {
		t.Fatalf("ReadShardMeta = %+v, %v, %v; want %+v", got, ok, err, want)
	}
	// An impossible on-disk assignment (hand-edited or corrupt) must
	// read as an error, not slip past Fold's completeness accounting.
	if err := os.WriteFile(filepath.Join(dir, ShardMetaFile), []byte(`{"Index":5,"Count":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadShardMeta(dir); err == nil || !strings.Contains(err.Error(), "impossible shard") {
		t.Errorf("impossible shard.json read back: err = %v", err)
	}
}

// TestFoldRefusesImpossibleShardMeta: a source whose shard.json claims
// an out-of-range index must fail the fold loudly — counting it toward
// completeness would let a real shard go silently missing.
func TestFoldRefusesImpossibleShardMeta(t *testing.T) {
	dir0 := shardStore(t, ShardMeta{Index: 0, Count: 2}, []int{0}, "fcc")
	dirBad := shardStore(t, ShardMeta{Index: 1, Count: 2}, []int{1}, "fcc")
	if err := os.WriteFile(filepath.Join(dirBad, ShardMetaFile), []byte(`{"Index":5,"Count":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Fold(filepath.Join(t.TempDir(), "out"), Options{}, dir0, dirBad); err == nil ||
		!strings.Contains(err.Error(), "impossible shard") {
		t.Errorf("fold accepted an impossible shard.json: err = %v", err)
	}
}

// TestDiscoverShards: parent-directory enumeration finds exactly the
// subdirectories carrying shard.json, ordered by shard index, and
// refuses to skip a child whose shard.json is broken.
func TestDiscoverShards(t *testing.T) {
	parent := t.TempDir()
	// Shard stores laid out under names that do NOT sort by index.
	for name, meta := range map[string]ShardMeta{
		"z-first.store": {Index: 0, Count: 3},
		"a-last.store":  {Index: 2, Count: 3},
		"m-mid.store":   {Index: 1, Count: 3},
	} {
		dir := filepath.Join(parent, name)
		s, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := WriteShardMeta(dir, meta); err != nil {
			t.Fatal(err)
		}
	}
	// Noise that must not be discovered: a plain subdirectory and a file.
	if err := os.MkdirAll(filepath.Join(parent, "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parent, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := DiscoverShards(parent)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(parent, "z-first.store"),
		filepath.Join(parent, "m-mid.store"),
		filepath.Join(parent, "a-last.store"),
	}
	if len(got) != len(want) {
		t.Fatalf("DiscoverShards = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("DiscoverShards[%d] = %s, want %s (index order)", i, got[i], want[i])
		}
	}

	// A broken child must fail discovery, not silently vanish from it.
	if err := os.WriteFile(filepath.Join(parent, "m-mid.store", ShardMetaFile), []byte(`{"Index":9,"Count":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverShards(parent); err == nil || !strings.Contains(err.Error(), "impossible shard") {
		t.Errorf("broken child discovered without error: err = %v", err)
	}

	// An empty parent discovers nothing, without error.
	if kids, err := DiscoverShards(t.TempDir()); err != nil || len(kids) != 0 {
		t.Errorf("empty parent: kids=%v err=%v", kids, err)
	}
}

// TestFoldExpandsParentDirectory: Fold accepts the parent directory a
// dispatcher laid its shard stores in, equivalently to listing every
// shard store by hand.
func TestFoldExpandsParentDirectory(t *testing.T) {
	parent := t.TempDir()
	dirs := make([]string, 2)
	for i := range dirs {
		dirs[i] = filepath.Join(parent, fmt.Sprintf("shard-%d.store", i))
		s, err := Create(dirs[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(testRow(i, "fcc")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := WriteShardMeta(dirs[i], ShardMeta{Index: i, Count: 2}); err != nil {
			t.Fatal(err)
		}
	}

	byHand := filepath.Join(t.TempDir(), "byhand")
	nHand, err := Fold(byHand, Options{}, dirs[0], dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	byParent := filepath.Join(t.TempDir(), "byparent")
	nParent, err := Fold(byParent, Options{}, parent)
	if err != nil {
		t.Fatalf("Fold over the parent directory: %v", err)
	}
	if nHand != 2 || nParent != 2 {
		t.Fatalf("folded %d / %d sessions, want 2 / 2", nHand, nParent)
	}
	a, err := Open(byHand, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(byParent, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("key counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Errorf("key %d differs: %s vs %s", i, ka[i], kb[i])
		}
	}

	// Expansion still validates completeness: removing one shard store
	// from the parent must refuse the fold, not fold the remainder.
	if err := os.RemoveAll(dirs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Fold(filepath.Join(t.TempDir(), "partial"), Options{}, parent); err == nil ||
		!strings.Contains(err.Error(), "missing shard") {
		t.Errorf("partial parent folded: err = %v", err)
	}
}
