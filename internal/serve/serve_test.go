package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
	"veritas/internal/store"
)

// serveFixture runs a small real campaign into a store and returns the
// handler plus the in-RAM run for comparison.
func serveFixture(t *testing.T) (http.Handler, *engine.Result, *store.Store) {
	t.Helper()
	corpus, arms := fleetCorpus(t)
	dir := t.TempDir()
	st, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(context.Background(), engine.Config{Workers: 2, Samples: 2, Seed: 1, Sink: st}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	ro, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	return New(ro, WithCacheEntries(8)), res, ro
}

func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, body
}

func TestServeSessionsAndScenarios(t *testing.T) {
	h, res, _ := serveFixture(t)

	code, body := get(t, h, "/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("/v1/sessions: %d %s", code, body)
	}
	var list struct {
		Count    int
		Sessions []store.SessionInfo
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != len(res.Sessions) {
		t.Errorf("listed %d sessions, want %d", list.Count, len(res.Sessions))
	}

	code, body = get(t, h, "/v1/sessions?scenario=lte")
	var lte struct{ Sessions []store.SessionInfo }
	if err := json.Unmarshal(body, &lte); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || len(lte.Sessions) != 1 || lte.Sessions[0].Scenario != "lte" {
		t.Errorf("scenario filter: code %d sessions %+v", code, lte.Sessions)
	}

	code, body = get(t, h, "/v1/scenarios")
	var sc struct{ Scenarios []store.ScenarioInfo }
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || len(sc.Scenarios) != len(engine.Scenarios()) {
		t.Errorf("/v1/scenarios: code %d got %+v", code, sc.Scenarios)
	}
}

func TestServeSessionFetchAndCache(t *testing.T) {
	h, res, _ := serveFixture(t)
	id := res.Sessions[0].ID

	code, body := get(t, h, "/v1/sessions/"+id)
	if code != http.StatusOK {
		t.Fatalf("session fetch: %d %s", code, body)
	}
	var row engine.SessionRow
	if err := json.Unmarshal(body, &row); err != nil {
		t.Fatal(err)
	}
	if row.ID != id || len(row.Arms) == 0 {
		t.Errorf("served row %+v missing results", row)
	}

	// Second fetch must be served from the read cache.
	_, again := get(t, h, "/v1/sessions/"+id)
	if !bytes.Equal(body, again) {
		t.Error("cached fetch returned different bytes")
	}
	_, health := get(t, h, "/healthz")
	var hz struct {
		CacheHits   uint64
		CacheMisses uint64
	}
	if err := json.Unmarshal(health, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.CacheHits == 0 {
		t.Errorf("healthz reports no cache hits after repeat fetch: %s", health)
	}

	if code, _ := get(t, h, "/v1/sessions/unknown-999"); code != http.StatusNotFound {
		t.Errorf("unknown session: code %d, want 404", code)
	}
}

// TestServeReportMatchesInRAM is the serving-layer acceptance check:
// the JSON the server returns equals the oracle's report over the run's
// in-RAM rows, byte for byte.
func TestServeReportMatchesInRAM(t *testing.T) {
	h, res, _ := serveFixture(t)
	want := enginetest.OracleJSON(t, enginetest.ResultRows(res), "")
	code, got := get(t, h, "/v1/report")
	if code != http.StatusOK {
		t.Fatalf("/v1/report: %d %s", code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("served report differs from in-RAM report\nwant: %s\ngot:  %s", want, got)
	}
	// Cached second read returns the same bytes.
	if _, again := get(t, h, "/v1/report"); !bytes.Equal(got, again) {
		t.Error("cached report differs")
	}
	// Scenario-filtered report covers only that scenario's sessions.
	_, flt := get(t, h, "/v1/report?scenario=wifi")
	var rep engine.Report
	if err := json.Unmarshal(flt, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 1 {
		t.Errorf("filtered report covers %d sessions, want 1", rep.Sessions)
	}
}

func TestServeUnknownScenarioIs404(t *testing.T) {
	h, _, _ := serveFixture(t)
	if code, _ := get(t, h, "/v1/report?scenario=dialup"); code != http.StatusNotFound {
		t.Errorf("unknown scenario report: code %d, want 404", code)
	}
	if code, _ := get(t, h, "/v1/report?scenario=lte"); code != http.StatusOK {
		t.Errorf("known scenario report: code %d, want 200", code)
	}
}

// TestServeSeesOverwritesThroughWritableStore pins the cache-coherence
// contract for a handler sharing a writable store with a campaign:
// overwriting a session must invalidate both its cached body and the
// cached reports, while untouched sessions keep hitting.
func TestServeSeesOverwritesThroughWritableStore(t *testing.T) {
	st, err := store.Create(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillStore(t, st, 3, "fcc")
	h := New(st, WithCacheEntries(8))

	_, before := get(t, h, "/v1/sessions/fcc-001")
	get(t, h, "/v1/sessions/fcc-002")
	_, reportBefore := get(t, h, "/v1/report")

	// Re-run the session with a different outcome.
	rerun := testRow(1, "fcc")
	rerun.SettingA.AvgSSIM = 0.42
	rerun.Arms[0].Baseline.AvgSSIM = 0.42
	if err := st.Append(rerun); err != nil {
		t.Fatal(err)
	}

	// The stale body is never served: the first fetch after the
	// overwrite misses and is the body a cacheless handler builds, and
	// the fetch after that is the same bytes from the cache.
	h0, m0 := hitsOf(t, h)
	code, after := get(t, h, "/v1/sessions/fcc-001")
	if code != http.StatusOK || bytes.Equal(before, after) {
		t.Errorf("overwritten session still served stale bytes (code %d)", code)
	}
	if _, direct := get(t, New(st, WithCacheEntries(-1)), "/v1/sessions/fcc-001"); !bytes.Equal(after, direct) {
		t.Errorf("after the overwrite the handler served\n%s\nthe store holds\n%s", after, direct)
	}
	var row engine.SessionRow
	if err := json.Unmarshal(after, &row); err != nil {
		t.Fatal(err)
	}
	if row.SettingA.AvgSSIM != 0.42 {
		t.Errorf("served SSIM %v, want the overwritten 0.42", row.SettingA.AvgSSIM)
	}
	if _, again := get(t, h, "/v1/sessions/fcc-001"); !bytes.Equal(after, again) {
		t.Error("the re-cached body differs from the one just served")
	}
	if h1, m1 := hitsOf(t, h); h1 != h0+1 || m1 != m0+1 {
		t.Errorf("overwritten session fetched twice: hits %d -> %d, misses %d -> %d, want one more of each", h0, h1, m0, m1)
	}
	if _, reportAfter := get(t, h, "/v1/report"); bytes.Equal(reportBefore, reportAfter) {
		t.Error("report cache survived an overwrite of an existing session")
	}

	// An untouched session cached before the overwrite still hits.
	h0, _ = hitsOf(t, h)
	get(t, h, "/v1/sessions/fcc-002")
	if h1, _ := hitsOf(t, h); h1 != h0+1 {
		t.Errorf("untouched session did not hit the body cache (%d -> %d)", h0, h1)
	}
}

func hitsOf(t *testing.T, h http.Handler) (uint64, uint64) {
	t.Helper()
	_, body := get(t, h, "/healthz")
	var hz struct {
		CacheHits   uint64
		CacheMisses uint64
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	return hz.CacheHits, hz.CacheMisses
}

func TestServeReportETag(t *testing.T) {
	h, _, _ := serveFixture(t)

	req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/report: %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("report response carries no ETag")
	}

	// A conditional request with the current tag is 304 with no body —
	// on both the cached and (fresh handler) uncached paths.
	for name, handler := range map[string]http.Handler{"cached": h} {
		req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
		req.Header.Set("If-None-Match", etag)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Errorf("%s: conditional report = %d, want 304", name, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("%s: 304 carried a %d-byte body", name, rec.Body.Len())
		}
		if got := rec.Header().Get("ETag"); got != etag {
			t.Errorf("%s: 304 ETag %q != %q", name, got, etag)
		}
	}

	// A stale tag still gets the full report.
	req = httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	req.Header.Set("If-None-Match", `"report-424242"`)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("stale conditional report = %d (%d bytes), want 200 with body", rec.Code, rec.Body.Len())
	}
}

func TestServeReportETagColdPathAndInvalidScenario(t *testing.T) {
	_, _, ro := serveFixture(t)
	// Fresh handler: no cached report body yet, the 304 must still work.
	cold := New(ro, WithCacheEntries(8))
	req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	req.Header.Set("If-None-Match", "*")
	rec := httptest.NewRecorder()
	cold.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("cold conditional report = %d, want 304", rec.Code)
	}
	// A conditional request must not turn an unknown scenario into 304.
	req = httptest.NewRequest(http.MethodGet, "/v1/report?scenario=dialup", nil)
	req.Header.Set("If-None-Match", "*")
	rec = httptest.NewRecorder()
	cold.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("conditional unknown scenario = %d, want 404", rec.Code)
	}
}

func TestServeReportETagMovesWithGeneration(t *testing.T) {
	corpus, arms := fleetCorpus(t)
	dir := t.TempDir()
	st, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := engine.Run(context.Background(), engine.Config{Workers: 2, Samples: 1, Seed: 1, Sink: st}, corpus, arms); err != nil {
		t.Fatal(err)
	}
	h := New(st, WithCacheEntries(8))

	req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	etag := rec.Header().Get("ETag")

	// Overwrite one session: the generation bumps, the old tag goes
	// stale, and the conditional request gets a fresh 200.
	row, ok, err := st.Get(corpus[0].ID)
	if err != nil || !ok {
		t.Fatalf("get %s: %v %v", corpus[0].ID, ok, err)
	}
	if err := st.Append(row); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-append conditional report = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("ETag"); got == etag {
		t.Errorf("ETag %q did not move with the store generation", got)
	}
}
