// Command loadgen drives a serving Veritas query tier with a
// Zipf-skewed synthetic read load and reports per-endpoint latency
// percentiles and overall throughput — the serving-layer counterpart
// of the compute benchmarks, and the harness CI's serve-smoke job runs
// against a watch-mode server mid-campaign.
//
// The load models a dashboard fleet: most requests hit the aggregate
// report family, a popular few scenarios and arms soak up most of the
// traffic (Zipf over the discovered scenario and arm lists), and a
// trickle lists sessions and scenarios. The endpoint mix is
// configurable; scenario and arm names are discovered from the target
// server, never hard-coded.
//
// The run is a functional check, not a gated measurement: it exits
// non-zero when more than 1% of the requests fail. Serving latency is
// measured by bench/'s query-read and live-ingest workloads.
//
// Usage:
//
//	loadgen -base http://localhost:8077 -duration 10s -concurrency 8
//	loadgen -base http://localhost:8077 -wait 30s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		base        = flag.String("base", "", "base URL of the serving tier (required), e.g. http://localhost:8077")
		duration    = flag.Duration("duration", 10*time.Second, "how long to drive load")
		concurrency = flag.Int("concurrency", 8, "concurrent client goroutines")
		zipfS       = flag.Float64("zipf-s", 1.2, "Zipf skew exponent over scenarios and arms (must be > 1)")
		zipfV       = flag.Float64("zipf-v", 1.0, "Zipf value parameter (must be >= 1)")
		seed        = flag.Int64("seed", 1, "base RNG seed (each worker derives its own)")
		mixFlag     = flag.String("mix", defaultMix, "endpoint weights, e.g. report=4,percentiles=2,cdf=1,series=1,sessions=1,scenarios=1")
		wait        = flag.Duration("wait", 0, "poll until the server reports a non-empty corpus, up to this long (0 = no wait)")
	)
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -base is required")
		os.Exit(2)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	cfg := config{
		base:        *base,
		duration:    *duration,
		concurrency: *concurrency,
		zipfS:       *zipfS,
		zipfV:       *zipfV,
		seed:        *seed,
		mix:         mix,
		wait:        *wait,
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	corpus, err := discoverWithWait(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	res := run(cfg, corpus)
	res.writeSummary(os.Stderr)
	// A smoke run must fail loudly when the server misbehaved: any
	// error rate above 1% (or no completed requests at all) is a
	// serving failure, not load-generator noise.
	if res.total == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no requests completed")
		os.Exit(1)
	}
	if res.errors*100 > res.total {
		fmt.Fprintf(os.Stderr, "loadgen: %d/%d requests failed\n", res.errors, res.total)
		os.Exit(1)
	}
}
