package serve

// Tests for the redesigned /v1 query surface: the shared error
// envelope, the report-family endpoints (cdf, series, percentiles),
// and the unknown-scenario regression fix.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/engine/enginetest"
	"veritas/internal/stats"
	"veritas/internal/store"
)

// doGet issues a GET with an optional If-None-Match validator.
func doGet(t *testing.T, h http.Handler, path, etag string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// envelope decodes the uniform error body and fails on any other shape.
func envelope(t *testing.T, body []byte) (message, param string) {
	t.Helper()
	var e struct {
		Error struct {
			Message string `json:"message"`
			Param   string `json:"param"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not the JSON envelope: %q (%v)", body, err)
	}
	if e.Error.Message == "" {
		t.Fatalf("error envelope has no message: %q", body)
	}
	return e.Error.Message, e.Error.Param
}

func TestServeErrorEnvelope(t *testing.T) {
	h, _, _ := serveFixture(t)
	// The live family parses with the same code; one shard holding a
	// bba-5s row lets its rows get past everything but the parser.
	parent := t.TempDir()
	shardFixture(t, parent, [][]engine.SessionRow{{testRow(0, "fcc")}})
	live := NewLive(parent)
	defer live.Close()
	type envelopeCase struct {
		name      string
		path      string
		code      int
		wantParam string
	}
	cases := []envelopeCase{
		{"unknown scenario", "/v1/report?scenario=dialup", 404, "scenario"},
		{"present-but-empty scenario", "/v1/report?scenario=", 404, "scenario"},
		{"unknown metric", "/v1/report/cdf?arm=bba-5s&metric=bogus", 400, "metric"},
		{"unknown estimator", "/v1/report/series?arm=bba-5s&estimator=bogus", 400, "estimator"},
		{"missing arm", "/v1/report/cdf", 400, "arm"},
		{"unknown arm", "/v1/report/percentiles?arm=nosuch", 404, "arm"},
		{"bad percentile", "/v1/report/percentiles?arm=bba-5s&percentiles=101", 400, "percentiles"},
		{"unknown abr", "/v1/report?abr=nosuch", 404, "abr"},
		{"unknown session", "/v1/sessions/nosuch-999", 404, ""},
	}
	// Non-finite ranks: ParseFloat accepts them all, and NaN also passes
	// a `p < 0 || p > 100` check — it used to reach the percentile index
	// arithmetic and panic the handler goroutine.
	for _, family := range []string{"/v1/report", "/v1/live/report"} {
		for _, pcts := range []string{"NaN", "nan,50", "Inf", "-Inf"} {
			cases = append(cases, envelopeCase{
				family + " percentiles=" + pcts, family + "/percentiles?arm=bba-5s&percentiles=" + pcts, 400, "percentiles"})
		}
	}
	for _, tc := range cases {
		target := h
		if strings.HasPrefix(tc.path, "/v1/live/") {
			target = live
		}
		rec := doGet(t, target, tc.path, "")
		if rec.Code != tc.code {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body.Bytes())
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		_, param := envelope(t, rec.Body.Bytes())
		if param != tc.wantParam {
			t.Errorf("%s: envelope param %q, want %q", tc.name, param, tc.wantParam)
		}
	}
}

// TestServeEmptyScenarioRegression pins the fix: `?scenario=` with an
// empty value must 404 (it cannot name any scenario), while the
// parameter being absent serves the whole corpus — the two spellings
// used to collapse into one silently-empty 200 report.
func TestServeEmptyScenarioRegression(t *testing.T) {
	h, res, _ := serveFixture(t)
	rec := doGet(t, h, "/v1/report?scenario=", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("?scenario= (empty): HTTP %d, want 404", rec.Code)
	}
	envelope(t, rec.Body.Bytes())

	rec = doGet(t, h, "/v1/report", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("unfiltered report: HTTP %d", rec.Code)
	}
	var rep engine.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != len(res.Sessions) {
		t.Errorf("unfiltered report covers %d sessions, want %d", rep.Sessions, len(res.Sessions))
	}
	// A conditional request must not turn the empty-scenario 404 into
	// a 304 either.
	if rec := doGet(t, h, "/v1/report?scenario=", "*"); rec.Code != http.StatusNotFound {
		t.Errorf("conditional ?scenario= : HTTP %d, want 404", rec.Code)
	}
}

// seriesFromStore recomputes the expected raw series straight from the
// store's partials (themselves pinned byte-identical to the aggregator
// elsewhere), so endpoint bodies are checked against an independent
// computation of the same numbers.
func seriesFromStore(t *testing.T, st *store.Store, arm, metric, estimator string) []float64 {
	t.Helper()
	p, err := st.Partials()
	if err != nil {
		t.Fatal(err)
	}
	mi, ok := engine.MetricIndex(metric)
	if !ok {
		t.Fatalf("metric %q", metric)
	}
	est, ok := engine.ParseEstimator(estimator)
	if !ok {
		t.Fatalf("estimator %q", estimator)
	}
	return p.Series("", arm, est, mi)
}

func TestServeReportSeriesAndCDF(t *testing.T) {
	h, _, st := serveFixture(t)
	want := seriesFromStore(t, st, "bba-5s", "ssim", "truth")
	if len(want) == 0 {
		t.Fatal("fixture produced no truth series")
	}

	rec := doGet(t, h, "/v1/report/series?arm=bba-5s&metric=ssim&estimator=truth", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("series: HTTP %d %s", rec.Code, rec.Body.Bytes())
	}
	var ser struct {
		Arm       string
		Metric    string
		Estimator string
		N         int
		Values    []float64
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ser); err != nil {
		t.Fatal(err)
	}
	if ser.Arm != "bba-5s" || ser.Metric != "ssim" || ser.Estimator != "truth" {
		t.Errorf("series meta %+v", ser)
	}
	if ser.N != len(want) || len(ser.Values) != len(want) {
		t.Fatalf("series N=%d len=%d, want %d", ser.N, len(ser.Values), len(want))
	}
	for i := range want {
		if ser.Values[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, ser.Values[i], want[i])
		}
	}

	rec = doGet(t, h, "/v1/report/cdf?arm=bba-5s&metric=ssim&estimator=truth", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("cdf: HTTP %d %s", rec.Code, rec.Body.Bytes())
	}
	var cdf struct {
		N      int
		Points []stats.CDFPoint
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cdf); err != nil {
		t.Fatal(err)
	}
	wantCDF := stats.CDF(want)
	if cdf.N != len(want) || len(cdf.Points) != len(wantCDF) {
		t.Fatalf("cdf N=%d points=%d, want %d", cdf.N, len(cdf.Points), len(wantCDF))
	}
	for i, p := range wantCDF {
		if cdf.Points[i] != p {
			t.Fatalf("cdf[%d] = %+v, want %+v", i, cdf.Points[i], p)
		}
	}
}

func TestServeReportPercentiles(t *testing.T) {
	h, _, st := serveFixture(t)
	want := seriesFromStore(t, st, "bba-5s", "ssim", "veritas-mid")

	rec := doGet(t, h, "/v1/report/percentiles?arm=bba-5s&percentiles=50,95,99", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("percentiles: HTTP %d %s", rec.Code, rec.Body.Bytes())
	}
	var got struct {
		Estimator   string
		N           int
		Percentiles []struct {
			P     float64 `json:"p"`
			Value float64 `json:"value"`
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Estimator != "veritas-mid" {
		t.Errorf("default estimator %q, want veritas-mid", got.Estimator)
	}
	ranks := []float64{50, 95, 99}
	vals := stats.Percentiles(want, ranks)
	if len(got.Percentiles) != len(ranks) {
		t.Fatalf("%d percentiles returned, want %d", len(got.Percentiles), len(ranks))
	}
	for i, pv := range got.Percentiles {
		if pv.P != ranks[i] || pv.Value != vals[i] {
			t.Errorf("percentile %v = %v, want p%v = %v", pv.P, pv.Value, ranks[i], vals[i])
		}
	}

	// Default rank list applies when ?percentiles= is absent.
	rec = doGet(t, h, "/v1/report/percentiles?arm=bba-5s", "")
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	var def struct {
		Percentiles []struct{ P float64 }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Percentiles) != len(defaultPercentiles) {
		t.Errorf("default rank list has %d entries, want %d", len(def.Percentiles), len(defaultPercentiles))
	}
}

// TestServeABRFilter: ?abr= narrows the report to that ABR's arms
// (name or name-prefix arms), and filtered reports cache and validate
// like unfiltered ones.
func TestServeABRFilter(t *testing.T) {
	h, _, _ := serveFixture(t)
	rec := doGet(t, h, "/v1/report?abr=bba", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("abr filter: HTTP %d %s", rec.Code, rec.Body.Bytes())
	}
	var rep engine.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) == 0 {
		t.Fatal("abr filter dropped every arm")
	}
	for _, a := range rep.Arms {
		if a.Arm != "bba" && a.Arm[:4] != "bba-" {
			t.Errorf("arm %q leaked through abr=bba", a.Arm)
		}
	}
}

// TestServeReportFamilyMatchesPartialsAtEveryGeneration is the
// acceptance pin at the serving layer: as rows append one by one, the
// served /v1/report body equals the full-recompute aggregator's JSON
// at every generation.
func TestServeReportMatchesRecomputeAtEveryGeneration(t *testing.T) {
	st, err := store.Create(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := New(st)
	for i := 0; i < 12; i++ {
		scen := []string{"fcc", "lte", "wifi"}[i%3]
		if err := st.Append(testRow(i, scen)); err != nil {
			t.Fatal(err)
		}
		rec := doGet(t, h, "/v1/report", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("gen %d: HTTP %d", i, rec.Code)
		}
		want := enginetest.OracleJSON(t, st.Scan, "")
		if got := rec.Body.String(); got != string(want) {
			t.Fatalf("gen %d: served report diverged from full recompute\nwant: %s\ngot:  %s", i, want, got)
		}
	}
}
