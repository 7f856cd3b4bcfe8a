package veritas_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"veritas"
)

// foldReport folds srcs into dst with FoldShards and returns the
// folded store's /v1/report body.
func foldReport(t *testing.T, dst string, srcs ...string) []byte {
	t.Helper()
	if _, err := veritas.FoldShards(dst, srcs...); err != nil {
		t.Fatalf("FoldShards into %s: %v", filepath.Base(dst), err)
	}
	c, err := veritas.NewCampaign(veritas.WithStore(dst), veritas.WithReadOnlyStore())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return v1Report(t, c)
}

// storeFiles reads every file of dir.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// appendTruncatedRow adds a newest segment to the store at dir holding
// one row, keyed after every other, whose binary body stops right after
// its scenario. Opening the store reads only a row's key, index and
// scenario, so it still opens; folding it decodes every row and fails
// on this one, last, after writing all the others.
func appendTruncatedRow(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.vseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	const key, scenario = "zzz-999", "zzz"
	payload := binary.AppendVarint([]byte{0x01}, 999) // binary row tag, then Index
	for _, s := range []string{key, scenario} {
		payload = append(binary.AppendUvarint(payload, uint64(len(s))), s...)
	}
	body := append([]byte(key), payload...)
	seg := []byte("VSTORE1\n")
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(key)))
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(body))
	seg = append(seg, body...)
	name := filepath.Join(dir, fmt.Sprintf("seg-%05d.vseg", len(segs)))
	if err := os.WriteFile(name, seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFoldShardsLandsAtomically: FoldShards replaces its own stale
// output with a byte-identical fold, refuses a destination holding
// anyone else's data, and a fold that fails part-way leaves the
// previous fold byte for byte and no temporary behind.
func TestFoldShardsLandsAtomically(t *testing.T) {
	ctx := context.Background()
	shard := filepath.Join(t.TempDir(), "shard.store")
	runShard(t, ctx, 0, 1, shard)
	dst := filepath.Join(t.TempDir(), "folded.store")
	first := foldReport(t, dst, shard)
	if again := foldReport(t, dst, shard); !bytes.Equal(first, again) {
		t.Fatalf("refolding into its own output changed /v1/report\nfirst: %s\nagain: %s", first, again)
	}

	plain := t.TempDir()
	if err := os.WriteFile(filepath.Join(plain, "keep.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "other.store")
	runShard(t, ctx, 0, 1, other, veritas.WithSeed(2))
	for _, c := range []struct{ name, dst, want string }{
		{"a directory with no campaign.json", plain, "no campaign.json"},
		{"another campaign's store", other, "different campaign"},
	} {
		before := storeFiles(t, c.dst)
		if _, err := veritas.FoldShards(c.dst, shard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("FoldShards into %s: err = %v, want it to mention %q", c.name, err, c.want)
		}
		if !reflect.DeepEqual(before, storeFiles(t, c.dst)) {
			t.Errorf("FoldShards into %s changed it", c.name)
		}
	}

	before := storeFiles(t, dst)
	appendTruncatedRow(t, shard)
	if _, err := veritas.FoldShards(dst, shard); err == nil || !strings.Contains(err.Error(), "malformed row") {
		t.Fatalf("FoldShards over a row cut short = %v, want the decode error", err)
	}
	if !reflect.DeepEqual(before, storeFiles(t, dst)) {
		t.Error("the failed fold changed the previous fold")
	}
	if _, err := os.Stat(dst + ".folding"); !os.IsNotExist(err) {
		t.Errorf("the failed fold left its temporary behind (stat err %v)", err)
	}
}
