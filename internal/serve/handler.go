package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"veritas/internal/engine"
	"veritas/internal/stats"
	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// reportCacheCap and reportCacheBytes bound a report family's body
// cache. The key space is per (endpoint, filter) combination, so the
// entry cap is what a scan of percentile spellings runs into; a series
// or cdf body is O(sessions), so the byte bound is what keeps the
// cache's memory independent of the corpus size — large bodies cycle
// through it while the small, expensive report bodies stay resident.
const (
	reportCacheCap   = 256
	reportCacheBytes = 4 << 20
)

// handler is the query API over one store (the route table is in the
// package documentation). Hot sessions are served from a bounded LRU of
// encoded bodies. A handler over a writable store picks up appends through
// the shared *store.Store handle; over a watch store (store.OpenWatch)
// each request first refreshes the tail — rate-limited by
// WithWatchInterval — so a server started mid-campaign tracks the
// campaign live. A plain read-only store is a snapshot: restart (or
// reopen) to see later progress.
type handler struct {
	config
	s      *store.Store
	bodies *bodyCache // /v1/sessions/{id} bodies, by record version

	// Watch stores only: the refresh error counter and throttle state.
	refreshErrs *telemetry.Counter
	watchMu     sync.Mutex
	lastRefresh time.Time
}

// New builds the query handler over an open store: the /v1 query
// surface (sessions, scenarios, the report family), /healthz, /v1/status,
// /v1/trace and /metrics. The package documentation has the route table.
func New(s *store.Store, opts ...Option) http.Handler {
	cfg := newConfig(opts)
	if cfg.traces == nil {
		cfg.traces = cfg.trc.Traces
	}
	// WithCacheEntries: 0 picks the default of 256, negative disables.
	entries := cfg.cacheEntries
	if entries == 0 {
		entries = 256
	}
	h := &handler{config: cfg, s: s, bodies: newBodyCache(entries, math.MaxInt)}
	rt := router{mux: http.NewServeMux(), reg: h.reg, trc: h.trc}
	if s.IsWatch() {
		rt.before = h.refresh
		h.refreshErrs = h.reg.Counter("veritas_serve_watch_refresh_errors_total")
	}
	// The metric names predate the body cache (it held decoded rows).
	h.bodies.register(h.reg, "veritas_serve_row_cache_hits_total", "veritas_serve_row_cache_misses_total",
		`veritas_serve_cache_bytes{cache="/v1/sessions"}`)
	rt.route("GET /healthz", h.health)
	rt.route("GET /v1/sessions", h.sessions)
	rt.route("GET /v1/sessions/{id}", h.session)
	rt.route("GET /v1/scenarios", h.scenarios)
	// The store generation keys the family's cache and ETag, and the
	// store's lazily built partials answer the queries; the router has
	// already tailed a watch store by the time the view is asked.
	mountReportFamily(rt, "/v1/report", "report", func() (*engine.Partials, uint64, error) {
		gen := s.Generation()
		p, err := s.Partials()
		return p, gen, err
	})
	rt.route("GET /v1/status", h.status)
	rt.route("GET /v1/trace", h.trace)
	rt.mux.HandleFunc("GET /metrics", h.metrics)
	return rt.mux
}

// refresh tails the watch store before a request is answered, at most
// once per WithWatchInterval. Refresh errors keep the last good view
// serving (a campaign mid-rotation is not an outage) and are counted.
func (h *handler) refresh() {
	if h.watchInterval > 0 {
		h.watchMu.Lock()
		if time.Since(h.lastRefresh) < h.watchInterval {
			h.watchMu.Unlock()
			return
		}
		h.lastRefresh = time.Now()
		h.watchMu.Unlock()
	}
	if _, err := h.s.Refresh(); err != nil {
		h.refreshErrs.Inc()
	}
}

// trace exports the notable-trace set as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing.
func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := tracing.WriteChrome(w, h.traces()); err != nil {
		writeAPIError(w, errInternal(err))
	}
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.reg.WritePrometheus(w)
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	hits, misses, _ := h.bodies.stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions":       h.s.Len(),
		"scenarios":      len(h.s.Scenarios()),
		"generation":     h.s.Generation(),
		"recoveredBytes": h.s.Recovered(),
		"cache":          map[string]uint64{"hits": hits, "misses": misses},
		"telemetry":      h.reg.Snapshot(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, body)
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (h *handler) health(w http.ResponseWriter, r *http.Request) {
	hits, misses, _ := h.bodies.stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"sessions":       h.s.Len(),
		"recoveredBytes": h.s.Recovered(),
		"cacheHits":      hits,
		"cacheMisses":    misses,
	})
}

func (h *handler) sessions(w http.ResponseWriter, r *http.Request) {
	infos := h.s.Sessions(r.URL.Query().Get("scenario"))
	if infos == nil {
		infos = []store.SessionInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(infos), "sessions": infos})
}

func (h *handler) session(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The record's version (its on-disk location) gates the cache:
	// overwriting a session moves it, so the stale body misses, while
	// untouched hot sessions keep hitting however much the rest of the
	// store grows.
	ver, ok := h.s.Version(id)
	if !ok {
		writeAPIError(w, errNotFound("", "unknown session %q", id))
		return
	}
	body, cached := h.bodies.get(id, ver)
	if !cached {
		row, ok, err := h.s.Get(id)
		if err == nil && ok {
			body, err = json.Marshal(row)
		}
		if err != nil {
			writeAPIError(w, errInternal(err))
			return
		}
		if !ok {
			writeAPIError(w, errNotFound("", "unknown session %q", id))
			return
		}
		h.bodies.put(id, ver, body)
	}
	writeBody(w, http.StatusOK, body)
}

func (h *handler) scenarios(w http.ResponseWriter, r *http.Request) {
	scens := h.s.Scenarios()
	if scens == nil {
		scens = []store.ScenarioInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": scens})
}

// etagMatches implements the If-None-Match comparison for the strong
// validators this handler emits: a wildcard or any listed tag equal to
// the current one.
func etagMatches(header, etag string) bool {
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		// Weak-comparison prefix: a cache may legitimately send back
		// W/"..." for a tag it received strong.
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

// validateQuery runs the corpus-backed half of query validation: do the
// scenario, ABR prefix, and arm the filters name actually exist in the
// (scenario-restricted) corpus?
func validateQuery(q *reportQuery, p *engine.Partials, needArm bool) *apiError {
	if q.scenarioSet && q.scenario == "" {
		// `?scenario=` used to fall through as "no filter" and serve the
		// whole corpus — an empty 200 for what is really a malformed
		// filter. An empty label is not a scenario: reject it.
		return errNotFound("scenario", "unknown scenario %q", q.scenario)
	}
	if q.scenario != "" && !p.HasScenario(q.scenario) {
		return errNotFound("scenario", "unknown scenario %q", q.scenario)
	}
	arms := p.ArmUnion(q.scenario)
	if armOK := q.armOK(); armOK != nil && !slices.ContainsFunc(arms, armOK) {
		return errNotFound("abr", "no arm matches ABR %q", q.abr)
	}
	if needArm {
		if q.arm == "" {
			return errBadParam("arm", "arm parameter required (one of: %s)", strings.Join(arms, ", "))
		}
		if !slices.Contains(arms, q.arm) {
			return errNotFound("arm", "unknown arm %q (have: %s)", q.arm, strings.Join(arms, ", "))
		}
	}
	return nil
}

// reportEndpoint is one member of the report family. needArm marks the
// series endpoints, which aggregate one arm and cannot default it.
type reportEndpoint struct {
	name    string
	needArm bool
	build   func(q *reportQuery, p *engine.Partials) any
}

// reportEndpoints is the family: the aggregate report at the family's
// prefix and the three single-arm series views under it.
var reportEndpoints = []reportEndpoint{
	{"report", false, buildReport},
	{"cdf", true, buildCDF},
	{"series", true, buildSeries},
	{"percentiles", true, buildPercentiles},
}

// mountReportFamily registers the four report-family routes under
// prefix — the store-backed /v1/report family and the shard-combined
// /v1/live/report family are both exactly this. view returns the
// current partials and their generation, refreshing first if it has
// to; the generation makes the family's ETag ("<etagPrefix>-<generation>":
// it moves on every append, including same-key overwrites, so an
// unchanged tag proves the aggregate is still current for any filter),
// and the tag is the version the family's body cache stores under.
func mountReportFamily(rt router, prefix, etagPrefix string, view func() (*engine.Partials, uint64, error)) {
	cache := newBodyCache(reportCacheCap, reportCacheBytes)
	cache.register(rt.reg,
		fmt.Sprintf("veritas_serve_report_cache_hits_total{family=%q}", prefix),
		fmt.Sprintf("veritas_serve_report_cache_misses_total{family=%q}", prefix),
		fmt.Sprintf("veritas_serve_cache_bytes{cache=%q}", prefix))
	for _, ep := range reportEndpoints {
		pattern := "GET " + prefix
		if ep.name != "report" {
			pattern += "/" + ep.name
		}
		rt.route(pattern, func(w http.ResponseWriter, r *http.Request) {
			q, aerr := parseReportQuery(r.URL.Query())
			if aerr != nil {
				writeAPIError(w, aerr)
				return
			}
			p, gen, err := view()
			if err != nil {
				writeAPIError(w, errInternal(err))
				return
			}
			etag := fmt.Sprintf("\"%s-%d\"", etagPrefix, gen)
			serveReport(w, r, ep, q, p, cache, etag)
		})
	}
}

// serveReport answers one report-family request: consult the body
// cache at the current generation's tag, validate against the partials,
// honor If-None-Match, then build and cache the body.
//
// Two ordering rules carry over from the original report handler and
// are pinned by tests: a cached body at the current generation skips
// validation entirely (it proves the query was valid when built and
// nothing changed since), and the 304 check runs only after validation,
// so a conditional request can never turn a 404 into a 304.
func serveReport(w http.ResponseWriter, r *http.Request, ep reportEndpoint, q *reportQuery, p *engine.Partials,
	cache *bodyCache, etag string) {
	key := q.cacheKey(ep.name)
	body, cached := cache.get(key, etag)
	if !cached {
		if aerr := validateQuery(q, p, ep.needArm); aerr != nil {
			writeAPIError(w, aerr)
			return
		}
	}
	// The tag is generation-keyed, so a match makes building the body
	// pointless even when none is cached.
	inm := r.Header.Get("If-None-Match")
	notModified := inm != "" && etagMatches(inm, etag)
	if !cached && !notModified {
		var err error
		if body, err = json.Marshal(ep.build(q, p)); err != nil {
			writeAPIError(w, errInternal(err))
			return
		}
		cache.put(key, etag, body)
	}
	w.Header().Set("ETag", etag)
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// seriesMeta is the header block every series-shaped response carries,
// echoing the resolved filters so a client never has to re-derive what
// defaults applied.
type seriesMeta struct {
	Scenario  string `json:"scenario,omitempty"`
	Arm       string `json:"arm"`
	Metric    string `json:"metric"`
	Estimator string `json:"estimator"`
	N         int    `json:"n"`
}

func metaFor(q *reportQuery, n int) seriesMeta {
	return seriesMeta{
		Scenario:  q.scenario,
		Arm:       q.arm,
		Metric:    q.metricKey,
		Estimator: string(q.estimator),
		N:         n,
	}
}

type cdfResponse struct {
	seriesMeta
	Points []stats.CDFPoint `json:"points"`
}

type seriesResponse struct {
	seriesMeta
	Values []float64 `json:"values"`
}

type percentileValue struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

type percentilesResponse struct {
	seriesMeta
	Percentiles []percentileValue `json:"percentiles"`
}

func buildReport(q *reportQuery, p *engine.Partials) any {
	return p.ReportFiltered(q.scenario, q.armOK())
}

func buildCDF(q *reportQuery, p *engine.Partials) any {
	series := p.Series(q.scenario, q.arm, q.estimator, q.metricIdx)
	points := stats.CDF(series)
	if points == nil {
		points = []stats.CDFPoint{}
	}
	return cdfResponse{seriesMeta: metaFor(q, len(series)), Points: points}
}

func buildSeries(q *reportQuery, p *engine.Partials) any {
	series := p.Series(q.scenario, q.arm, q.estimator, q.metricIdx)
	if series == nil {
		series = []float64{}
	}
	return seriesResponse{seriesMeta: metaFor(q, len(series)), Values: series}
}

func buildPercentiles(q *reportQuery, p *engine.Partials) any {
	series := p.Series(q.scenario, q.arm, q.estimator, q.metricIdx)
	vals := stats.Percentiles(series, q.percentiles)
	out := make([]percentileValue, len(vals)) // empty series: empty list, never NaN
	for i, v := range vals {
		out[i] = percentileValue{P: q.percentiles[i], Value: v}
	}
	return percentilesResponse{seriesMeta: metaFor(q, len(series)), Percentiles: out}
}

// bodyCache is the one cache of the query tier: a mutex-guarded LRU of
// encoded response bodies with two bounds, entries and bytes, evicting
// one entry at a time from the cold end when either is exceeded. A body
// is served only at the version it was stored under (a session's record
// version, a report family's generation tag); a put at a newer version
// replaces the stale body in place, so a key never holds two.
type bodyCache struct {
	maxEntries, maxBytes int // maxEntries <= 0: caching is off

	mu           sync.Mutex
	ll           *list.List // of *bodyItem, front = most recent
	items        map[string]*list.Element
	bytes        int // sum of len(body) over the items
	hits, misses uint64
}

type bodyItem struct {
	key, ver string
	body     []byte
}

func newBodyCache(maxEntries, maxBytes int) *bodyCache {
	return &bodyCache{maxEntries: maxEntries, maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// register folds the cache's own counters into reg as callback metrics.
func (c *bodyCache) register(reg *telemetry.Registry, hitsName, missesName, bytesName string) {
	reg.RegisterFunc(hitsName, telemetry.CounterFunc, func() float64 {
		hits, _, _ := c.stats()
		return float64(hits)
	})
	reg.RegisterFunc(missesName, telemetry.CounterFunc, func() float64 {
		_, misses, _ := c.stats()
		return float64(misses)
	})
	reg.RegisterFunc(bytesName, telemetry.GaugeFunc, func() float64 {
		_, _, bytes := c.stats()
		return float64(bytes)
	})
}

// get returns the body cached for key only if it was stored at ver; a
// stale entry counts as a miss (and is replaced on the following put).
func (c *bodyCache) get(key, ver string) ([]byte, bool) {
	if c.maxEntries <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && el.Value.(*bodyItem).ver == ver {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*bodyItem).body, true
	}
	c.misses++
	return nil, false
}

// put stores body, which the caller must not modify afterwards. A body
// larger than the whole byte bound is not admitted: it would evict every
// other entry and then itself.
func (c *bodyCache) put(key, ver string, body []byte) {
	if c.maxEntries <= 0 || len(body) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*bodyItem)
		c.bytes += len(body) - len(it.body)
		it.ver, it.body = ver, body
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&bodyItem{key: key, ver: ver, body: body})
		c.bytes += len(body)
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		it := c.ll.Remove(c.ll.Back()).(*bodyItem)
		delete(c.items, it.key)
		c.bytes -= len(it.body)
	}
}

func (c *bodyCache) stats() (hits, misses uint64, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.bytes
}
