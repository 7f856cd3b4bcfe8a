// Package serve is the HTTP query layer over a result store — the
// serving brick that makes results persisted by campaigns queryable
// without re-running any inference. Handlers are built from functional
// options, in the same style as the veritas Campaign facade:
//
//	h := serve.New(st,
//		serve.WithCacheEntries(512),
//		serve.WithTelemetry(reg),
//		serve.WithWatchInterval(250*time.Millisecond))
//
// New serves one store (owned, read-only snapshot, or watch tail):
//
//	GET /healthz                    liveness + store and cache counters
//	GET /v1/sessions[?scenario=]    list stored sessions (index only, no payload reads)
//	GET /v1/sessions/{id}           one session's full what-if results
//	GET /v1/scenarios               scenario labels with session counts
//	GET /v1/report                  aggregate report (same JSON as the in-RAM
//	                                aggregator), served from incremental partials
//	GET /v1/report/cdf              empirical CDF of one (arm, metric, estimator)
//	GET /v1/report/series           the raw per-session series behind the CDF
//	GET /v1/report/percentiles      chosen percentiles of the same series
//	GET /v1/status                  store + telemetry snapshot as JSON
//	GET /v1/trace                   notable request traces (Chrome trace-event JSON)
//	GET /metrics                    the telemetry registry in Prometheus text format
//
// NewLive serves the same report family over the shard stores of a
// still-running dispatch, under /v1/live/* (see live.go). Both mount the
// family through one function (mountReportFamily) on one instrumented
// router, so the filter grammar (query.go), the JSON error envelope,
// the generation ETag / If-None-Match discipline, the per-query body
// cache and the request metrics are the same code whichever view
// answers. The aggregates behind the bodies are incremental
// (engine.Partials folded per append), so no endpoint rescans the
// corpus per query.
//
// The tier has one cache type (bodyCache in handler.go): an LRU of
// encoded response bodies, evicting entry by entry. /v1/sessions/{id}
// keeps one keyed by the session's record version and sized by
// WithCacheEntries; each report family keeps one keyed by the canonical
// query (query.go) at the current generation, bounded to 256 entries
// and 4 MiB whatever the corpus size. A hit writes stored bytes: no
// store read, no decode, no json.Marshal.
//
// NewServer and ListenAndServe build the http.Server every listener in
// the module runs behind, with the header timeout and size limits a
// slow or abusive client must not be able to exceed.
package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// config is what the options set; New and NewLive read it.
type config struct {
	cacheEntries  int
	reg           *telemetry.Registry
	trc           *tracing.Tracer
	traces        func() []tracing.Trace
	watchInterval time.Duration
}

// Option configures a query handler.
type Option func(*config)

// WithCacheEntries bounds the in-process read cache of encoded
// /v1/sessions/{id} bodies (default 256; negative disables it). The
// report families' body caches have fixed bounds.
func WithCacheEntries(n int) Option {
	return func(c *config) { c.cacheEntries = n }
}

// WithTelemetry routes the handler's request counters — and the
// /metrics and /v1/status endpoints — through reg, so serving metrics
// appear alongside whatever else the registry carries (usually the
// campaign's engine and store metrics). Without it the handler keeps a
// private registry and the endpoints carry serve-side metrics only.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.reg = reg }
}

// WithTracer records a tail-sampled trace per served request (5xx
// responses count as errored) and feeds GET /v1/trace. Without it
// request tracing is off and the endpoint serves an empty (but valid)
// trace file.
func WithTracer(trc *tracing.Tracer) Option {
	return func(c *config) { c.trc = trc }
}

// WithTraceSource overrides the trace set /v1/trace exports — the
// Campaign facade uses it to serve the fleet-merged view (the
// campaign's own traces plus what dispatch workers streamed up).
func WithTraceSource(fn func() []tracing.Trace) Option {
	return func(c *config) { c.traces = fn }
}

// WithWatchInterval rate-limits the tail refresh a handler over a
// watch-mode store (or the live tier over its shard stores) runs before
// answering: at most one refresh per interval, 0 (the default) meaning
// every request re-checks. Ignored for ordinary stores, which never
// change shape under a reader.
func WithWatchInterval(d time.Duration) Option {
	return func(c *config) { c.watchInterval = d }
}

func newConfig(opts []Option) config {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	return c
}

// router is the instrumented mux both handlers mount their routes on.
// before, when set, runs ahead of every routed request (the watch-store
// tail refresh).
type router struct {
	mux    *http.ServeMux
	reg    *telemetry.Registry
	trc    *tracing.Tracer
	before func()
}

// route registers fn under pattern ("GET /path") with a per-endpoint
// request counter and latency histogram spliced in front, labelled by
// the pattern's path. With a tracer present each request also becomes a
// tail-sampled trace (5xx = errored); without one the response writer
// is passed through untouched.
func (rt router) route(pattern string, fn http.HandlerFunc) {
	_, path, _ := strings.Cut(pattern, " ")
	reqs := rt.reg.Counter(fmt.Sprintf("veritas_serve_requests_total{path=%q}", path))
	lat := rt.reg.Histogram(fmt.Sprintf("veritas_serve_request_seconds{path=%q}", path))
	rt.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqs.Inc()
		if rt.before != nil {
			rt.before()
		}
		if rt.trc == nil {
			fn(w, r)
			lat.Since(t0)
			return
		}
		tb := rt.trc.Start("request", path)
		sw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		tb.SetAttr("status", sw.code)
		var err error
		if sw.code >= 500 {
			err = fmt.Errorf("HTTP %d", sw.code)
		}
		tb.Finish(err)
		lat.Since(t0)
	})
}

// statusRecorder captures the response code for request traces.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}
