package serve

// Tests for the tier's one cache type: what it keeps under a scan, that
// its memory is bounded in bytes, that a cached body is the uncached
// body, and that its key is the query (no more, no less).

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"veritas/internal/player"
	"veritas/internal/store"
	"veritas/internal/telemetry"
)

// reportCacheStats reads the /v1/report family's cache metrics the way
// an operator would: from the registry behind /metrics and /v1/status.
func reportCacheStats(reg *telemetry.Registry) (hits, misses uint64, bytes float64) {
	snap := reg.Snapshot()
	return snap.Counters[`veritas_serve_report_cache_hits_total{family="/v1/report"}`],
		snap.Counters[`veritas_serve_report_cache_misses_total{family="/v1/report"}`],
		snap.Gauges[`veritas_serve_cache_bytes{cache="/v1/report"}`]
}

func mustGet(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	code, body := get(t, h, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, code, body)
	}
	return body
}

// TestHotReportSurvivesAScanOfSpellings: a client walking more distinct
// query spellings than the cache has entries must not cost the report a
// dashboard keeps re-reading its place. The cache used to drop every
// entry at reportCacheCap keys.
func TestHotReportSurvivesAScanOfSpellings(t *testing.T) {
	st, err := store.Create(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillStore(t, st, 20, "fcc")
	reg := telemetry.NewRegistry()
	h := New(st, WithTelemetry(reg))

	mustGet(t, h, "/v1/report")
	const spellings = reportCacheCap + 44
	for i := 0; i < spellings; i++ {
		mustGet(t, h, fmt.Sprintf("/v1/report/percentiles?arm=bba-5s&percentiles=%g", float64(i)/4))
		if i%100 == 99 {
			mustGet(t, h, "/v1/report") // hot: read again well inside the scan
		}
	}
	_, before, _ := reportCacheStats(reg)
	mustGet(t, h, "/v1/report")
	hits, after, _ := reportCacheStats(reg)
	if after != before {
		t.Errorf("/v1/report missed after a scan of %d spellings (misses %d -> %d)", spellings, before, after)
	}
	if want := uint64(1 + spellings); after != want {
		t.Errorf("%d misses, want %d: the first report and each spelling once", after, want)
	}
	if want := uint64(spellings/100 + 1); hits != want {
		t.Errorf("%d hits, want %d", hits, want)
	}
}

// TestReportCacheIsBoundedInBytes: series and cdf bodies are
// O(sessions), so an entry bound alone is not a memory bound. More body
// bytes than reportCacheBytes go through the cache; it must stay under
// the bound, and the small report body that is still being read must
// stay in it.
func TestReportCacheIsBoundedInBytes(t *testing.T) {
	st, err := store.Create(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 3000; i++ {
		row := testRow(i, "fcc")
		// Full-precision values: a point costs its 17 digits in the body.
		arm := &row.Arms[0]
		for _, m := range []*player.Metrics{&arm.Baseline, &arm.Truth, &arm.Samples[0], &arm.Samples[1], &arm.Samples[2]} {
			m.AvgSSIM = 0.9 + float64(i)/70001
			m.RebufRatio = float64(i) / 30011
		}
		if err := st.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	h := New(st, WithTelemetry(reg))

	mustGet(t, h, "/v1/report")
	var paths []string
	for _, filter := range []string{"", "&scenario=fcc", "&abr=bba", "&scenario=fcc&abr=bba"} {
		for _, est := range []string{"truth", "baseline", "veritas-low", "veritas-mid"} {
			for _, metric := range []string{"ssim", "rebuf"} {
				for _, ep := range []string{"cdf", "series"} {
					paths = append(paths, fmt.Sprintf("/v1/report/%s?arm=bba-5s&metric=%s&estimator=%s%s", ep, metric, est, filter))
				}
			}
		}
	}
	if len(paths) != 64 {
		t.Fatalf("%d queries, want 64", len(paths))
	}
	served := 0
	for i, path := range paths {
		served += len(mustGet(t, h, path))
		if _, _, held := reportCacheStats(reg); held > reportCacheBytes {
			t.Fatalf("after %s the cache holds %v bytes, bound %d", path, held, reportCacheBytes)
		}
		if i%8 == 7 {
			mustGet(t, h, "/v1/report")
		}
	}
	if served <= reportCacheBytes {
		t.Fatalf("the scan served %d bytes, not enough to reach the %d-byte bound: the test shows nothing", served, reportCacheBytes)
	}
	_, before, held := reportCacheStats(reg)
	if held == 0 {
		t.Error("the cache holds nothing after the scan")
	}
	mustGet(t, h, "/v1/report")
	if _, after, _ := reportCacheStats(reg); after != before {
		t.Errorf("/v1/report missed after %d bytes of cdf and series bodies (misses %d -> %d)", served, before, after)
	}
}

// TestReportCacheHoldsOneGeneration: a report family's cache holds the
// bodies of one generation. An append moves the generation, and the
// first body built at it empties the cache: the bytes held are that
// body's alone, not the dead generation's too.
func TestReportCacheHoldsOneGeneration(t *testing.T) {
	st, err := store.Create(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillStore(t, st, 20, "fcc")
	reg := telemetry.NewRegistry()
	h := New(st, WithTelemetry(reg))

	mustGet(t, h, "/v1/report")
	mustGet(t, h, "/v1/report/series?arm=bba-5s")
	mustGet(t, h, "/v1/report/cdf?arm=bba-5s")
	if _, _, held := reportCacheStats(reg); held == 0 {
		t.Fatal("nothing cached")
	}
	if err := st.Append(testRow(20, "lte")); err != nil {
		t.Fatal(err)
	}
	body := mustGet(t, h, "/v1/report")
	if _, _, held := reportCacheStats(reg); held != float64(len(body)) {
		t.Errorf("after a report at the new generation the cache holds %v bytes, want the %d of that report alone", held, len(body))
	}
	if _, misses, _ := reportCacheStats(reg); misses != 4 {
		t.Errorf("%d misses, want 4", misses)
	}
}

// TestBodyCacheDropsAnOlderGeneration: putAt from a generation older
// than the cache holds (a request that read the view before another
// moved it on) stores nothing, and one from a newer generation starts
// the cache over.
func TestBodyCacheDropsAnOlderGeneration(t *testing.T) {
	c := newBodyCache(8, 100)
	c.putAt(2, "a", "g2", []byte("aa"))
	c.putAt(2, "b", "g2", []byte("bbb"))
	c.putAt(1, "c", "g1", []byte("c"))
	if _, ok := c.get("c", "g1"); ok {
		t.Error("a body from an older generation was stored")
	}
	if _, _, n := c.stats(); n != 5 {
		t.Errorf("cache holds %d bytes, want 5", n)
	}
	c.putAt(3, "a", "g3", []byte("A"))
	if _, ok := c.get("b", "g2"); ok {
		t.Error("a body of the previous generation survived a put at a newer one")
	}
	if body, ok := c.get("a", "g3"); !ok || string(body) != "A" {
		t.Errorf("get(a, g3) = %q, %v", body, ok)
	}
	if _, _, n := c.stats(); n != 1 {
		t.Errorf("cache holds %d bytes, want 1", n)
	}
}

// TestOversizedBodyIsNotAdmitted: one body above the byte bound must not
// flush the cache on its way through.
func TestOversizedBodyIsNotAdmitted(t *testing.T) {
	c := newBodyCache(4, 10)
	c.put("small", "v1", []byte("12345"))
	c.put("huge", "v1", make([]byte, 11))
	if _, ok := c.get("small", "v1"); !ok {
		t.Error("an oversized put evicted the resident entry")
	}
	if _, ok := c.get("huge", "v1"); ok {
		t.Error("a body above the byte bound was admitted")
	}
	c.put("other", "v1", []byte("123456")) // 5 + 6 > 10: the cold end goes
	if _, _, held := c.stats(); held != 6 {
		t.Errorf("cache holds %d bytes, want 6", held)
	}
}

// TestCachedSessionBodyEqualsUncached: for every session of both
// checked-in stores, the body served from the cache is the body built
// from the store.
func TestCachedSessionBodyEqualsUncached(t *testing.T) {
	for _, name := range []string{"store_pr18", "store_pr21"} {
		st, err := store.Open(filepath.Join("..", "store", "testdata", name), store.Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cached, uncached := New(st), New(st, WithCacheEntries(-1))
		infos := st.Sessions("")
		if len(infos) == 0 {
			t.Fatalf("%s lists no sessions", name)
		}
		for _, info := range infos {
			path := "/v1/sessions/" + info.ID
			first := mustGet(t, cached, path)
			second := mustGet(t, cached, path)
			direct := mustGet(t, uncached, path)
			if !bytes.Equal(first, direct) || !bytes.Equal(second, direct) {
				t.Errorf("%s %s: cached body differs from the uncached one\n  miss: %s\n   hit: %s\ndirect: %s", name, path, first, second, direct)
			}
		}
		if hits, misses := hitsOf(t, cached); hits != uint64(len(infos)) || misses != uint64(len(infos)) {
			t.Errorf("%s: %d hits and %d misses over %d sessions fetched twice", name, hits, misses, len(infos))
		}
		if hits, misses := hitsOf(t, uncached); hits != 0 || misses != 0 {
			t.Errorf("%s: a disabled cache counted %d hits, %d misses", name, hits, misses)
		}
	}
}

// TestPercentileSpellingsShareAnEntry: the cache key is built from the
// parsed percentile list, not the parameter's spelling.
func TestPercentileSpellingsShareAnEntry(t *testing.T) {
	_, _, ro := serveFixture(t)
	reg := telemetry.NewRegistry()
	h := New(ro, WithTelemetry(reg))
	misses := func() uint64 { _, m, _ := reportCacheStats(reg); return m }

	const base = "/v1/report/percentiles?arm=bba-5s"
	want := mustGet(t, h, base+"&percentiles=50,90")
	for _, spelling := range []string{"50,%2090", "50.0,90", "5e1,%2B90", "50,90.000"} {
		if got := mustGet(t, h, base+"&percentiles="+spelling); !bytes.Equal(got, want) {
			t.Errorf("percentiles=%s: body %s, want %s", spelling, got, want)
		}
	}
	if got := misses(); got != 1 {
		t.Errorf("five spellings of one list took %d cache entries, want 1", got)
	}
	// The response lists ranks in request order, so order is identity.
	if got := mustGet(t, h, base+"&percentiles=90,50"); bytes.Equal(got, want) {
		t.Error("percentiles=90,50 was served the 50,90 body")
	}
	if got := misses(); got != 2 {
		t.Errorf("the reversed list: %d misses, want 2", got)
	}
	// Spelling the default list out is the absent parameter.
	mustGet(t, h, base)
	mustGet(t, h, base+"&percentiles=10,25,50,75,90,95,99")
	if got := misses(); got != 3 {
		t.Errorf("the default list spelled out: %d misses, want 3", got)
	}
}

// TestCacheKeyIsInjective: two different queries must never share a
// body. The key used to join raw filter values with NUL, so a NUL inside
// one could shift a field boundary, and because a cached body skips
// validation, a query that is a 404 was served another query's 200.
func TestCacheKeyIsInjective(t *testing.T) {
	h, _, _ := serveFixture(t)
	mustGet(t, h, "/v1/report?arm=x%00y") // the report ignores arm: 200, cached
	if code, body := get(t, h, "/v1/report?abr=%00x&arm=y"); code != http.StatusNotFound {
		t.Errorf("an ABR filter no arm matches: HTTP %d, want 404 (%.80s)", code, body)
	}
}

// TestBodyCacheUnderConcurrentReaders: several clients reading more
// sessions and report spellings than a small cache holds, so hits, puts
// and evictions interleave; every body must be the cacheless one. Run
// under -race.
func TestBodyCacheUnderConcurrentReaders(t *testing.T) {
	st, err := store.Create(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillStore(t, st, 12, "fcc")
	h := New(st, WithCacheEntries(4))
	var paths []string
	var want [][]byte
	for i := 0; i < 12; i++ {
		paths = append(paths, fmt.Sprintf("/v1/sessions/fcc-%03d", i), fmt.Sprintf("/v1/report/percentiles?arm=bba-5s&percentiles=%d", i))
	}
	for _, path := range paths {
		want = append(want, mustGet(t, New(st, WithCacheEntries(-1)), path))
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (i*(c+1) + c) % len(paths)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[k], nil))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[k]) {
					t.Errorf("client %d: GET %s: %d %s", c, paths[k], rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
