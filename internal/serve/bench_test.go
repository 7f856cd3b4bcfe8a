package serve

// One handler at a time, in process: ServeHTTP into a recorder over a
// 1,000-row store of default-campaign-shaped rows (4 arms, K = 5).
// bench/ times the same handlers behind a loopback listener; these are
// the per-request costs under it.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"veritas/internal/player"
	"veritas/internal/store"
)

var benchScenarios = []string{"fcc", "lte", "wifi", "square"}

func benchHandler(b *testing.B, opts ...Option) http.Handler {
	b.Helper()
	st, err := store.Create(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	for i := 0; i < 1000; i++ {
		row := testRow(i, benchScenarios[i%4])
		arm := row.Arms[0]
		arm.Samples = []player.Metrics{arm.Truth, arm.Truth, arm.Truth, arm.Truth, arm.Truth}
		row.Arms = row.Arms[:0]
		for _, name := range []string{"bba-5s", "bba-30s", "mpc-5s", "mpc-30s"} {
			arm.Name = name
			row.Arms = append(row.Arms, arm)
		}
		if err := st.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	return New(st, opts...)
}

// benchGet times GET path(i) against h, failing on anything but a 200.
// One untimed request first pays what only a process's first request
// pays (the store's lazy partials build, opening a segment reader): the
// CI gate runs three iterations, and allocs/op must not depend on that.
func benchGet(b *testing.B, h http.Handler, path func(i int) string) {
	b.Helper()
	serve := func(i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path(i), nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s: %d %s", path(i), rec.Code, rec.Body.Bytes())
		}
	}
	serve(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}

func sessionPath(i int) string {
	i %= 200 // inside the default 256-entry cache
	return fmt.Sprintf("/v1/sessions/%s-%03d", benchScenarios[i%4], i)
}

// BenchmarkSessionHit: /v1/sessions/{id} answered from the body cache.
func BenchmarkSessionHit(b *testing.B) {
	h := benchHandler(b)
	for i := 0; i < 200; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, sessionPath(i), nil))
	}
	benchGet(b, h, sessionPath)
}

// BenchmarkSessionMiss: the same requests with the cache off — store
// read, row decode and json.Marshal every time.
func BenchmarkSessionMiss(b *testing.B) {
	benchGet(b, benchHandler(b, WithCacheEntries(-1)), sessionPath)
}

// BenchmarkReportHit: /v1/report answered from the body cache.
func BenchmarkReportHit(b *testing.B) {
	benchGet(b, benchHandler(b), func(int) string { return "/v1/report" })
}

// BenchmarkReportMissScenario: a scenario-filtered report built from the
// partials every time. The report ignores arm but the cache key does
// not, so a fresh arm value per request is a fresh key.
func BenchmarkReportMissScenario(b *testing.B) {
	benchGet(b, benchHandler(b), func(i int) string { return fmt.Sprintf("/v1/report?scenario=lte&arm=%d", i) })
}
