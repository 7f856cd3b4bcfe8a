package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const landFP = `{"seed": 7}`

// campaignStore writes a closed store holding rows and, when fp is not
// empty, a campaign.json.
func campaignStore(t *testing.T, rows []int, fp string) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rows {
		if err := s.Append(testRow(i, "fcc")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fp != "" {
		if err := os.WriteFile(filepath.Join(dir, CampaignMetaFile), []byte(fp), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// truncatedRowStore writes a store that opens, since Open reads only a
// row's key, index and scenario, but whose last row in key order stops
// right after its scenario. A fold decodes every row in key order, so
// it fails on that row after it has written all the others.
func truncatedRowStore(t *testing.T, fp string) string {
	t.Helper()
	dir := t.TempDir()
	seg := []byte(segMagic)
	for i := 0; i < 3; i++ {
		row := testRow(i, "fcc")
		seg = appendFrame(seg, row.ID, mustEncode(t, row))
	}
	bad := testRow(9, "fcc")
	cut := binary.AppendVarint([]byte{rowTagBinary}, int64(bad.Index))
	cut = appendString(appendString(cut, bad.ID), bad.Scenario)
	seg = appendFrame(seg, bad.ID, cut)
	if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if fp != "" {
		if err := os.WriteFile(filepath.Join(dir, CampaignMetaFile), []byte(fp), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("the source must open for the fold to fail part-way: %v", err)
	}
	st.Close()
	return dir
}

// dirFiles reads every file of dir; nil when dir does not exist.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
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

// noSiblings fails when a fold into dst left its landing directories.
func noSiblings(t *testing.T, dst string) {
	t.Helper()
	for _, sib := range []string{dst + ".folding", dst + ".replaced"} {
		if _, err := os.Stat(sib); !os.IsNotExist(err) {
			t.Errorf("%s left behind (stat err %v)", filepath.Base(sib), err)
		}
	}
}

// TestFailedFoldIsNeverVisible: a fold that fails part-way leaves dst
// absent or holding the previous fold byte for byte, and no temporary.
// A half-written dst would carry no campaign.json, and a read-only Open,
// which is what serve does, would serve it as a complete corpus.
func TestFailedFoldIsNeverVisible(t *testing.T) {
	bad := truncatedRowStore(t, landFP)

	t.Run("Fold", func(t *testing.T) {
		dst := filepath.Join(t.TempDir(), "folded")
		if _, err := Fold(dst, Options{}, bad); err == nil || !strings.Contains(err.Error(), "malformed row") {
			t.Fatalf("Fold over a row cut short = %v, want the decode error", err)
		}
		if files := dirFiles(t, dst); files != nil {
			t.Errorf("the failed Fold is visible at dst: %d file(s)", len(files))
		}
		noSiblings(t, dst)
	})

	// Over a previous fold of the same campaign, which Fold may replace.
	dst := filepath.Join(t.TempDir(), "folded")
	if _, err := Fold(dst, Options{}, campaignStore(t, []int{0, 1}, landFP)); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dst)
	if _, err := Fold(dst, Options{}, bad); err == nil || !strings.Contains(err.Error(), "malformed row") {
		t.Fatalf("refold over a row cut short = %v, want the decode error", err)
	}
	if after := dirFiles(t, dst); !reflect.DeepEqual(before, after) {
		t.Errorf("the failed refold changed dst: %d file(s) before, %d after", len(before), len(after))
	}
	noSiblings(t, dst)
}

// TestFoldClearsCrashDebris: a fold that crashed leaves only dst's
// landing siblings, and the next fold into dst clears them.
func TestFoldClearsCrashDebris(t *testing.T) {
	dst := filepath.Join(t.TempDir(), "folded")
	for _, sib := range []string{dst + ".folding", dst + ".replaced"} {
		if err := os.MkdirAll(sib, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sib, segName(0)), []byte("half a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := Fold(dst, Options{}, campaignStore(t, []int{0, 1, 2}, landFP))
	if err != nil {
		t.Fatalf("fold over a crashed fold's debris: %v", err)
	}
	if n != 3 {
		t.Errorf("folded %d sessions, want 3", n)
	}
	noSiblings(t, dst)
	st, err := Open(dst, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 3 {
		t.Errorf("folded store holds %d sessions, want 3", st.Len())
	}
}

// TestFoldReplaceRule pins the one rule for replacing a fold's
// destination: absent, empty, or a previous fold of the same campaign.
func TestFoldReplaceRule(t *testing.T) {
	src := campaignStore(t, []int{0, 1}, landFP)
	dst := filepath.Join(t.TempDir(), "folded")
	if _, err := Fold(dst, Options{}, src); err != nil {
		t.Fatal(err)
	}
	first := dirFiles(t, dst)
	if n, err := Fold(dst, Options{}, src); err != nil || n != 2 {
		t.Fatalf("refold into its own output = (%d, %v), want (2, nil)", n, err)
	}
	if again := dirFiles(t, dst); !reflect.DeepEqual(first, again) {
		t.Error("a refold of the same sources is not byte-identical")
	}
	if _, err := Fold(dst+string(os.PathSeparator), Options{}, src); err != nil {
		t.Fatalf("refold through a trailing slash: %v", err)
	}
	noSiblings(t, dst)

	empty := t.TempDir()
	if _, err := Fold(empty, Options{}, src); err != nil {
		t.Errorf("fold into an empty directory: %v", err)
	}

	plain := t.TempDir()
	if err := os.WriteFile(filepath.Join(plain, "keep.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		fold       func() error
	}{
		{"another campaign", "different campaign", func() error {
			_, err := Fold(dst, Options{}, campaignStore(t, []int{5}, `{"seed": 99}`))
			return err
		}},
		{"no campaign.json", "no campaign.json", func() error {
			_, err := Fold(plain, Options{}, src)
			return err
		}},
		{"a fold with no fingerprint", "different campaign", func() error {
			_, err := Fold(dst, Options{}, campaignStore(t, []int{5}, ""))
			return err
		}},
	} {
		before, beforePlain := dirFiles(t, dst), dirFiles(t, plain)
		if err := c.fold(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
		if !reflect.DeepEqual(before, dirFiles(t, dst)) || !reflect.DeepEqual(beforePlain, dirFiles(t, plain)) {
			t.Errorf("%s: a refused fold changed its destination", c.name)
		}
	}

	// The pre-flight applies the same rule before anything is computed,
	// to the campaign's forms and whatever its sources already carry.
	fresh := filepath.Join(t.TempDir(), "shard-0.store") // not written yet
	for _, c := range []struct {
		name  string
		srcs  []string
		forms [][]byte
		want  string
	}{
		{"matching form", []string{fresh}, [][]byte{[]byte(`{"seed":7}`)}, ""},
		{"mismatching form", []string{fresh}, [][]byte{[]byte(`{"seed":99}`)}, "different campaign"},
		{"source fingerprint", []string{src}, nil, ""},
		{"foreign source fingerprint", []string{campaignStore(t, nil, `{"seed": 99}`)}, nil, "different campaign"},
		{"nothing to match", []string{fresh}, nil, "different campaign"},
	} {
		err := CheckFoldTarget(dst, c.srcs, c.forms)
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("CheckFoldTarget, %s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if err := CheckFoldTarget(plain, []string{fresh}, nil); err == nil || !strings.Contains(err.Error(), "no campaign.json") {
		t.Errorf("CheckFoldTarget over a directory with no campaign.json: err = %v", err)
	}
	if err := CheckFoldTarget(filepath.Join(t.TempDir(), "absent"), []string{src}, [][]byte{[]byte(`{"seed":99}`)}); err != nil {
		t.Errorf("CheckFoldTarget over an absent destination: %v", err)
	}
}
