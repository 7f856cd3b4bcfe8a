// Command serve exposes a fleet result store over HTTP: the first
// serving-layer brick. It attaches a read-only campaign to the store
// (a campaign may still be appending to it) and answers causal-query
// reads — no inference runs at request time, everything is served from
// the persisted corpus through in-process caches of encoded response
// bodies (sessions sized by -cache; the report family's has fixed
// bounds, in entries and in bytes).
//
// Endpoints:
//
//	GET /healthz                  liveness, store size, cache counters
//	GET /v1/sessions[?scenario=]  list stored sessions
//	GET /v1/sessions/{id}         one session's what-if results
//	GET /v1/scenarios             scenario labels with session counts
//	GET /v1/report[?scenario=]    aggregate report JSON (identical to the
//	                              in-RAM aggregator's report for the corpus),
//	                              with a store-generation ETag; conditional
//	                              requests answer 304 Not Modified
//	GET /v1/report/cdf            one arm/metric/estimator empirical CDF
//	GET /v1/report/series         the raw per-session value series
//	GET /v1/report/percentiles    percentile table (?percentiles=50,95,99)
//	GET /v1/status                store + telemetry snapshot as JSON
//	GET /metrics                  telemetry in Prometheus text format
//	GET /v1/trace                 tail-sampled traces as Chrome trace-event
//	                              JSON (load in Perfetto or chrome://tracing)
//
// The store may be a live campaign's, a single shard's (fleet -shard),
// or a folded corpus (fleet -fold): a folded store serves the exact
// report a single-process campaign would have produced — /v1/report
// bodies are byte-identical — so the shard → fold → serve pipeline is
// transparent to clients.
//
// With -watch the server tails a store another process is still
// writing: each request (rate-limited by -watch-interval) picks up
// newly appended sessions, so /v1/report tracks a running campaign
// instead of the snapshot taken at open. The store directory may not
// even exist yet — watch mode serves an empty corpus until it appears.
//
// Usage:
//
//	serve -store campaign.store                 # serve on :8077
//	serve -store campaign.store -addr :9000 -cache 1024
//	serve -store folded.store                   # serve a fleet -fold corpus
//	serve -store campaign.store -watch          # tail a running campaign
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"veritas"
	"veritas/internal/cli"
)

// logger is the process-wide structured logger, built from -log and
// -log-level right after flag parsing.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	var (
		dir       = flag.String("store", "", "store directory to serve (required)")
		addr      = flag.String("addr", ":8077", "listen address")
		cache     = flag.Int("cache", 0, "cached /v1/sessions/{id} bodies (0 = default 256, negative disables)")
		pprof     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		logFormat = flag.String("log", "text", "structured log format on stderr: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		quiet     = flag.Bool("quiet", false, "skip the one-line JSON telemetry summary on clean shutdown")
		watch     = flag.Bool("watch", false, "tail a store another process is still writing")
		watchIvl  = flag.Duration("watch-interval", 250*time.Millisecond, "with -watch: at most one tail refresh per interval (0 = every request)")
	)
	flag.Parse()
	log, err := cli.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		cli.Fatal(logger, err)
	}
	logger = log
	cli.StartPprof(logger, *pprof)
	if *dir == "" {
		cli.Fatal(logger, fmt.Errorf("-store is required"))
	}

	opts := []veritas.CampaignOption{
		veritas.WithStore(*dir),
		veritas.WithReadCache(*cache),
	}
	if *watch {
		opts = append(opts, veritas.WithWatch(), veritas.WithWatchInterval(*watchIvl))
	} else {
		opts = append(opts, veritas.WithReadOnlyStore())
	}
	c, err := veritas.NewCampaign(opts...)
	if err != nil {
		cli.Fatal(logger, err)
	}
	defer c.Close()
	st, err := c.Store()
	if err != nil {
		cli.Fatal(logger, err)
	}
	if rec := st.Recovered(); rec > 0 {
		logger.Warn("skipped torn tail bytes (campaign crashed mid-append?)", "bytes", rec)
	}
	logger.Info("serving store", "sessions", st.Len(), "store", *dir, "addr", *addr, "watch", *watch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := c.Serve(ctx, *addr); err != nil && err != http.ErrServerClosed {
		cli.Fatal(logger, err)
	}
	// Clean shutdown: flush the one-line JSON telemetry digest (request
	// counters, cache traffic) so a scraped-nothing deployment still
	// leaves a machine-readable record. -quiet opts out.
	if !*quiet {
		if err := cli.WriteTelemetrySummary(os.Stderr, c.Telemetry().Summary()); err != nil {
			logger.Error("telemetry summary", "error", err)
		}
	}
}
