package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
	"veritas/internal/player"
)

// testRow synthesizes a plausible session row without running any
// inference.
func testRow(i int, scenario string) engine.SessionRow {
	m := player.Metrics{AvgSSIM: 0.9 + float64(i)*1e-3, RebufRatio: 0.01 * float64(i%5), AvgBitrateMbps: 2 + float64(i%7), NumChunks: 30}
	return engine.SessionRow{
		Index:     i,
		ID:        fmt.Sprintf("%s-%03d", scenario, i),
		Scenario:  scenario,
		Simulated: true,
		SettingA:  m,
		Arms: []engine.ArmOutcome{{
			Name:     "bba-5s",
			Baseline: m,
			Samples:  []player.Metrics{m, m, m},
			Truth:    m,
			HasTruth: true,
		}},
		Predictions: []float64{1.5, float64(i)},
	}
}

func fillStore(t *testing.T, s *Store, n int, scenario string) []engine.SessionRow {
	t.Helper()
	rows := make([]engine.SessionRow, n)
	for i := 0; i < n; i++ {
		rows[i] = testRow(i, scenario)
		if err := s.Append(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := fillStore(t, s, 10, "fcc")
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	for _, want := range rows {
		got, ok, err := s.Get(want.ID)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", want.ID, ok, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%s) = %+v, want %+v", want.ID, got, want)
		}
	}
	if _, ok, _ := s.Get("nope"); ok {
		t.Error("Get of unknown key reported ok")
	}
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys not sorted: %v", keys)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything still there, and appends continue.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 || s2.Recovered() != 0 {
		t.Fatalf("reopen: Len=%d Recovered=%d", s2.Len(), s2.Recovered())
	}
	if err := s2.Append(testRow(10, "fcc")); err != nil {
		t.Fatal(err)
	}
	if !s2.Has("fcc-010") {
		t.Error("appended row not visible after reopen")
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rows := fillStore(t, s, 40, "lte")
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.vseg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	for _, want := range rows {
		got, ok, err := s.Get(want.ID)
		if err != nil || !ok || got.ID != want.ID {
			t.Fatalf("Get(%s) across segments failed: ok=%v err=%v", want.ID, ok, err)
		}
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 40 {
		t.Fatalf("reopened rotated store Len = %d, want 40", s2.Len())
	}
}

func TestStoreDuplicateKeyLastWins(t *testing.T) {
	s, err := Create(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first := testRow(1, "wifi")
	second := first
	second.SettingA.AvgSSIM = 0.123
	if err := s.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(second); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate append, want 1", s.Len())
	}
	got, _, err := s.Get(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.SettingA.AvgSSIM != 0.123 {
		t.Errorf("duplicate key: got SSIM %v, want the later record", got.SettingA.AvgSSIM)
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.vseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1]
}

// TestStoreCrashRecovery is the torn-tail contract: a segment cut
// mid-record reopens cleanly with exactly the intact records, and the
// resume skip set reflects the lost session.
func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 6, "fcc")
	s.Close()

	// Simulate a crash mid-append: chop bytes off the newest segment so
	// its final frame is torn.
	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if s2.Len() != 5 {
		t.Fatalf("recovered Len = %d, want 5 (one torn record dropped)", s2.Len())
	}
	if s2.Recovered() == 0 {
		t.Error("Recovered() = 0 after truncating a record")
	}
	if s2.Has("fcc-005") {
		t.Error("torn record still visible")
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("fcc-%03d", i)
		if _, ok, err := s2.Get(id); !ok || err != nil {
			t.Errorf("intact record %s lost in recovery: ok=%v err=%v", id, ok, err)
		}
	}
	// The torn tail was truncated away: appends and a further clean
	// reopen both work.
	if err := s2.Append(testRow(5, "fcc")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 6 || s3.Recovered() != 0 {
		t.Errorf("after re-append: Len=%d Recovered=%d, want 6, 0", s3.Len(), s3.Recovered())
	}
}

func TestStoreCorruptMiddleSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 40, "lte")
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.vseg"))
	if len(segs) < 2 {
		t.Fatal("test needs >= 2 segments")
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt middle segment should fail Open")
	}
}

func TestStoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 3, "square")
	s.Close()
	seg := lastSegment(t, dir)
	fi, _ := os.Stat(seg)
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Len() != 2 {
		t.Fatalf("read-only Len = %d, want 2", ro.Len())
	}
	if err := ro.Append(testRow(9, "square")); err != ErrReadOnly {
		t.Errorf("Append on read-only store: err = %v, want ErrReadOnly", err)
	}
	// Read-only recovery must not touch the file.
	after, _ := os.Stat(seg)
	if after.Size() != fi.Size()-5 {
		t.Errorf("read-only open changed the segment size: %d -> %d", fi.Size()-5, after.Size())
	}
}

// fleetCorpus builds a small real corpus + one arm for the end-to-end
// store tests.
func fleetCorpus(t testing.TB) ([]engine.SessionSpec, []engine.Arm) {
	t.Helper()
	ccfg := engine.CorpusConfig{SessionsPer: 1, NumChunks: 25, Seed: 3}
	corpus, err := engine.BuildCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	arms, err := engine.BuildMatrix(ccfg, []string{"bba"}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	return corpus, arms
}

// TestStreamingStoreDeterminism pins the acceptance contract: the
// aggregate report built by re-reading a store that results were
// streamed into is byte-identical to the in-RAM aggregator's report,
// for every worker count.
func TestStreamingStoreDeterminism(t *testing.T) {
	corpus, arms := fleetCorpus(t)
	var want []byte
	for _, workers := range []int{1, 2, 7} {
		ram, err := engine.Run(context.Background(), engine.Config{Workers: workers, Samples: 2, Seed: 1}, corpus, arms)
		if err != nil {
			t.Fatal(err)
		}
		ramJSON := enginetest.OracleJSON(t, enginetest.ResultRows(ram), "")

		dir := t.TempDir()
		st, err := Create(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.Config{Workers: workers, Samples: 2, Seed: 1, Sink: st}
		if _, err := engine.Run(context.Background(), cfg, corpus, arms); err != nil {
			t.Fatal(err)
		}
		st.Close()

		ro, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		storeJSON := partialsReportBytes(t, ro, "")
		if oracle := enginetest.OracleJSON(t, ro.Scan, ""); !bytes.Equal(storeJSON, oracle) {
			t.Fatalf("workers=%d: store partials report differs from the oracle over its rows", workers)
		}
		ro.Close()

		if !bytes.Equal(ramJSON, storeJSON) {
			t.Fatalf("workers=%d: store-path report differs from in-RAM report\nram:   %s\nstore: %s",
				workers, ramJSON, storeJSON)
		}
		if want == nil {
			want = ramJSON
		} else if !bytes.Equal(want, ramJSON) {
			t.Fatalf("workers=%d: report differs across worker counts", workers)
		}
	}
}

// TestResumeSkipsStoredSessions covers the interrupted-campaign
// workflow: a partial run persists some sessions; the resumed run skips
// exactly those, recomputes only the remainder, and the final store
// aggregate is byte-identical to an uninterrupted campaign's.
func TestResumeSkipsStoredSessions(t *testing.T) {
	corpus, arms := fleetCorpus(t)

	// The uninterrupted reference campaign.
	full, err := engine.Run(context.Background(), engine.Config{Workers: 2, Samples: 2, Seed: 1}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := enginetest.OracleJSON(t, enginetest.ResultRows(full), "")

	// Phase 1: the "interrupted" run persists only the first half.
	dir := t.TempDir()
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	half := corpus[:len(corpus)/2]
	if _, err := engine.Run(context.Background(), engine.Config{Workers: 2, Samples: 2, Seed: 1, Sink: st}, half, arms); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume over the FULL corpus with the store's keys as the
	// skip set. Skipped sessions must not be recomputed, and the
	// remainder must keep their corpus-index-derived seeds.
	skip := make(map[string]bool)
	for _, k := range st.Keys() {
		skip[k] = true
	}
	if len(skip) != len(half) {
		t.Fatalf("skip set has %d sessions, want %d", len(skip), len(half))
	}
	var (
		reranMu sync.Mutex
		reran   []string
	)
	cfg := engine.Config{
		Workers: 2, Samples: 2, Seed: 1, Sink: st, Skip: skip,
		OnResult: func(r engine.SessionResult) {
			reranMu.Lock()
			defer reranMu.Unlock()
			reran = append(reran, r.ID)
		},
	}
	res, err := engine.Run(context.Background(), cfg, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if res.Executed != len(corpus)-len(half) {
		t.Errorf("resumed run executed %d sessions, want %d", res.Executed, len(corpus)-len(half))
	}
	for _, id := range reran {
		if skip[id] {
			t.Errorf("resume recomputed stored session %s", id)
		}
	}

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Len() != len(corpus) {
		t.Fatalf("store holds %d sessions after resume, want %d", ro.Len(), len(corpus))
	}
	gotJSON := partialsReportBytes(t, ro, "")
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("resumed campaign's aggregate differs from the uninterrupted one\nwant: %s\ngot:  %s", wantJSON, gotJSON)
	}
}

func TestOpenReadOnlyFailsFastOnMissingStore(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), Options{ReadOnly: true}); err == nil {
		t.Error("read-only open of a missing directory should error")
	}
	if _, err := Open(t.TempDir(), Options{ReadOnly: true}); err == nil {
		t.Error("read-only open of an empty directory should error")
	}
}

// TestStoreRecoversTornMagic covers the crash window between segment
// creation and the magic header landing on disk: recovery must rewrite
// the header so records appended afterwards survive the next reopen.
func TestStoreRecoversTornMagic(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := lastSegment(t, dir)
	if err := os.Truncate(seg, 3); err != nil { // torn mid-magic
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over torn magic: %v", err)
	}
	if s2.Recovered() == 0 {
		t.Error("torn magic not counted as recovered bytes")
	}
	fillStore(t, s2, 2, "fcc")
	s2.Close()

	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 || s3.Recovered() != 0 {
		t.Fatalf("rows appended after magic recovery were lost: Len=%d Recovered=%d, want 2, 0",
			s3.Len(), s3.Recovered())
	}
}

func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Error("second writable open of a locked store should fail")
	}
	fillStore(t, s, 1, "fcc")
	// Readers are never blocked by the writer lock.
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Errorf("read-only open blocked by writer lock: %v", err)
	} else {
		ro.Close()
	}
	s.Close()
	// The lock dies with the handle.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}
