package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"veritas/internal/engine"
	"veritas/internal/store"
)

// canonicalSpelling writes q back out as the one query string its cache
// key stands for: every parameter explicit, canonical values.
func canonicalSpelling(q *reportQuery) url.Values {
	pcts := make([]string, len(q.percentiles))
	for i, p := range q.percentiles {
		pcts[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	vals := url.Values{
		"abr":         {q.abr},
		"arm":         {q.arm},
		"metric":      {q.metricKey},
		"estimator":   {string(q.estimator)},
		"percentiles": {strings.Join(pcts, ",")},
	}
	if q.scenarioSet {
		vals.Set("scenario", q.scenario)
	}
	return vals
}

// uncachedAnswer is what ep answers q with no cache in the way: the
// status and the body.
func uncachedAnswer(ep reportEndpoint, q *reportQuery, p *engine.Partials) (int, []byte) {
	rec := httptest.NewRecorder()
	serveReport(rec, httptest.NewRequest(http.MethodGet, "/", nil), ep, q, p, newBodyCache(0, 0), "fuzz", 1)
	return rec.Code, rec.Body.Bytes()
}

// FuzzReportQuery fuzzes the /v1 query grammar and its canonicaliser
// with two raw query strings. parseReportQuery must never panic; a
// query's canonical spelling must parse back to the same cache key
// (canonicalising is idempotent); and any two inputs that share a cache
// key must get byte-identical answers from every endpoint — the cache
// serves one's body to the other without looking.
func FuzzReportQuery(f *testing.F) {
	// Every spelling serve_api_test.go uses, then the percentile edge
	// cases: non-finite and out-of-range ranks, one list too long, empty
	// parts, and pairs that differ only in spelling.
	for _, seed := range [][2]string{
		{"scenario=dialup", "scenario="},
		{"arm=bba-5s&metric=bogus", "arm=bba-5s&estimator=bogus"},
		{"", "arm=nosuch"},
		{"arm=bba-5s&percentiles=101", "abr=nosuch"},
		{"arm=bba-5s&percentiles=NaN", "arm=bba-5s&percentiles=nan,50"},
		{"arm=bba-5s&percentiles=Inf", "arm=bba-5s&percentiles=-Inf"},
		{"arm=bba-5s&metric=ssim&estimator=truth", "arm=bba-5s&metric=SSIM&estimator=truth"},
		{"arm=bba-5s&percentiles=50,95,99", "arm=bba-5s&percentiles=50.0,%2095,+9.9e1"},
		{"arm=bba-5s", "arm=bba-5s&percentiles=10,25,50,75,90,95,99"},
		{"abr=bba", "abr=bba&scenario=lte"},
		{"arm=bba-5s&percentiles=1e400", "arm=bba-5s&percentiles=-0"},
		{"arm=bba-5s&percentiles=" + strings.Repeat("1,", 32) + "1", "arm=bba-5s&percentiles=" + strings.Repeat("1,", 31) + "1"},
		{"arm=bba-5s&percentiles=50,,90", "arm=bba-5s&percentiles=,"},
		{"arm=x%00y", "abr=%00x&arm=y"},
		{"arm=bba-5s&percentiles=50,90", "arm=bba-5s&percentiles=90,50"},
		{"abr=bba&arm=bba-5s&metric=rebuf&estimator=truth&percentiles=50", "abr=bba"},
		{"arm=bba-5s&percentiles=50", "arm=bba-5s&percentiles=90"},
	} {
		f.Add(seed[0], seed[1])
	}
	st, err := store.Open(filepath.Join("..", "store", "testdata", "store_pr21"), store.Options{ReadOnly: true})
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	p, err := st.Partials()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		var queries []*reportQuery
		for _, raw := range []string{a, b} {
			vals, _ := url.ParseQuery(raw) // a malformed pair is dropped, the rest kept: what the handler sees
			q, aerr := parseReportQuery(vals)
			if aerr != nil {
				if aerr.Status != http.StatusBadRequest || aerr.Param == "" {
					t.Fatalf("parsing %q: %+v, want a 400 naming its parameter", raw, aerr)
				}
				continue
			}
			canon, aerr := parseReportQuery(canonicalSpelling(q))
			if aerr != nil {
				t.Fatalf("the canonical spelling of %q does not parse: %s", raw, aerr.Message)
			}
			for _, ep := range reportEndpoints {
				if got, want := canon.cacheKey(ep.name), q.cacheKey(ep.name); got != want {
					t.Fatalf("canonicalising %q twice moves its %s key:\n%q\n%q", raw, ep.name, want, got)
				}
			}
			queries = append(queries, q, canon)
		}
		for _, ep := range reportEndpoints {
			for i, q := range queries {
				for _, other := range queries[:i] {
					if q.cacheKey(ep.name) != other.cacheKey(ep.name) {
						continue
					}
					code, body := uncachedAnswer(ep, q, p)
					otherCode, otherBody := uncachedAnswer(ep, other, p)
					if code != otherCode || !bytes.Equal(body, otherBody) {
						t.Fatalf("%s: %q and %q share the key %q but are answered\n%d %s\n%d %s",
							ep.name, a, b, q.cacheKey(ep.name), code, body, otherCode, otherBody)
					}
				}
			}
		}
	})
}

// TestCacheKeyIgnoresUnreadFields: a cache key carries only the fields
// its endpoint reads, so two spellings that differ in nothing else share
// one entry.
func TestCacheKeyIgnoresUnreadFields(t *testing.T) {
	for _, c := range []struct {
		endpoint, a, b string
		same           bool
	}{
		{"report", "abr=bba", "abr=bba&arm=bba-5s&metric=rebuf&estimator=truth&percentiles=50", true},
		{"report", "abr=bba", "abr=bola", false},
		{"report", "", "scenario=lte", false},
		{"cdf", "arm=bba-5s", "arm=bba-5s&percentiles=50", true},
		{"series", "arm=bba-5s&percentiles=1,2", "arm=bba-5s&percentiles=50", true},
		{"cdf", "arm=bba-5s", "arm=bba-5s&metric=rebuf", false},
		{"series", "arm=bba-5s", "arm=bba-5s&estimator=truth", false},
		{"series", "arm=bba-5s", "arm=bba-5s&abr=bola", false},
		{"percentiles", "arm=bba-5s&percentiles=50", "arm=bba-5s&percentiles=90", false},
	} {
		key := func(raw string) string {
			vals, err := url.ParseQuery(raw)
			if err != nil {
				t.Fatal(err)
			}
			q, aerr := parseReportQuery(vals)
			if aerr != nil {
				t.Fatalf("parsing %q: %s", raw, aerr.Message)
			}
			return q.cacheKey(c.endpoint)
		}
		if got := key(c.a) == key(c.b); got != c.same {
			t.Errorf("%s: %q and %q share a key = %v, want %v", c.endpoint, c.a, c.b, got, c.same)
		}
	}
}
