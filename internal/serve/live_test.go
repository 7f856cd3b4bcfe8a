package serve

// Tests for the live query tier over a dispatching campaign's shard
// directory.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// shardFixture lays out parent/shard-N.store directories with shard
// metadata and the given row slices.
func shardFixture(t *testing.T, parent string, shards [][]engine.SessionRow) []*store.Store {
	t.Helper()
	out := make([]*store.Store, len(shards))
	for i, rows := range shards {
		dir := filepath.Join(parent, fmt.Sprintf("shard-%d.store", i))
		st, err := store.Create(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := st.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.WriteShardMeta(dir, store.ShardMeta{Index: i, Count: len(shards)}); err != nil {
			t.Fatal(err)
		}
		out[i] = st
		t.Cleanup(func() { st.Close() })
	}
	return out
}

func TestLiveHandlerCombinesShards(t *testing.T) {
	parent := t.TempDir()
	rowsA := []engine.SessionRow{testRow(0, "fcc"), testRow(1, "lte")}
	rowsB := []engine.SessionRow{testRow(2, "fcc"), testRow(3, "wifi")}
	writers := shardFixture(t, parent, [][]engine.SessionRow{rowsA, rowsB})

	h := NewLive(parent)
	defer h.Close()

	rec := doGet(t, h, "/v1/live/report", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/live/report: %d %s", rec.Code, rec.Body.Bytes())
	}
	// The live report must equal the report of one store holding every
	// shard's rows (same rows -> same sorted view -> same bytes).
	all, err := store.Create(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	for _, r := range append(append([]engine.SessionRow(nil), rowsA...), rowsB...) {
		if err := all.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := enginetest.OracleJSON(t, all.Scan, "")
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("live report differs from combined store report\nwant: %s\ngot:  %s", want, rec.Body.Bytes())
	}

	// Status reflects the discovered shards.
	rec = doGet(t, h, "/v1/live/status", "")
	var status struct {
		Shards   int `json:"shards"`
		Sessions int `json:"sessions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Shards != 2 || status.Sessions != 4 {
		t.Errorf("live status %+v, want 2 shards / 4 sessions", status)
	}

	// New rows on a shard move the live view and its ETag.
	etag1 := doGet(t, h, "/v1/live/report", "").Header().Get("ETag")
	if err := writers[0].Append(testRow(9, "fcc")); err != nil {
		t.Fatal(err)
	}
	rec = doGet(t, h, "/v1/live/report", "")
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	var rep engine.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 5 {
		t.Errorf("live report covers %d sessions after append, want 5", rep.Sessions)
	}
	if etag2 := rec.Header().Get("ETag"); etag2 == etag1 {
		t.Error("live ETag did not move after a shard append")
	} else if rec := doGet(t, h, "/v1/live/report", etag2); rec.Code != http.StatusNotModified {
		t.Errorf("conditional live report: %d, want 304", rec.Code)
	}
}

func TestLiveHandlerEmptyParentAndLateShards(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "not-yet")
	h := NewLive(parent)
	defer h.Close()

	rec := doGet(t, h, "/v1/live/report", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("live report over missing parent: %d", rec.Code)
	}
	var rep engine.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 0 {
		t.Errorf("empty live report covers %d sessions", rep.Sessions)
	}

	// Shards appearing later are picked up; an upload a fleet dispatcher
	// is still staging, a stamped store one level further down in
	// .incoming, is not a shard.
	shardFixture(t, filepath.Join(parent, ".incoming"), [][]engine.SessionRow{{testRow(9, "fcc")}})
	shardFixture(t, parent, [][]engine.SessionRow{{testRow(0, "fcc")}})
	rec = doGet(t, h, "/v1/live/report", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 1 {
		t.Errorf("live report covers %d sessions after shard appeared, want 1", rep.Sessions)
	}

	// The query grammar and envelope hold on the live surface too.
	rec = doGet(t, h, "/v1/live/report?scenario=nosuch", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("live unknown scenario: %d", rec.Code)
	}
	envelope(t, rec.Body.Bytes())
	rec = doGet(t, h, "/v1/live/report/percentiles?arm=bba-5s", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("live percentiles: %d %s", rec.Code, rec.Body.Bytes())
	}
}

// TestLiveHonoursTelemetryAndTracer: the live tier mounts through the
// same instrumented router as the store-backed handler, so the
// WithTelemetry / WithTracer options NewLive accepts (and used to drop)
// count and trace its requests.
func TestLiveHonoursTelemetryAndTracer(t *testing.T) {
	reg := telemetry.NewRegistry()
	trc := tracing.New(4)
	h := NewLive(filepath.Join(t.TempDir(), "not-yet"), WithTelemetry(reg), WithTracer(trc))
	defer h.Close()
	for _, path := range []string{"/v1/live/report", "/v1/live/report/cdf?arm=bba-5s", "/v1/live/status"} {
		doGet(t, h, path, "")
	}
	for _, name := range []string{
		`veritas_serve_requests_total{path="/v1/live/report"}`,
		`veritas_serve_requests_total{path="/v1/live/report/cdf"}`,
		`veritas_serve_requests_total{path="/v1/live/status"}`,
	} {
		if got := reg.Counter(name).Value(); got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	if got := len(trc.Traces()); got != 3 {
		t.Errorf("tracer kept %d request traces, want 3", got)
	}
}
