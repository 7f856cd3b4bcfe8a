// Command fleet runs a batch causal-query campaign: it generates a
// scenario-diverse corpus of streaming sessions (FCC-, LTE-, WiFi-like
// and square-wave bandwidth regimes), runs an ABR × buffer-size what-if
// matrix over every session on the concurrent fleet engine, and prints
// an aggregate report (per-arm metric summaries, truth coverage, cache
// and throughput statistics).
//
// With -store, per-session results stream to a persistent corpus store
// as workers finish them, and the report is rebuilt from the store —
// which makes campaigns resumable: a killed run restarted with -resume
// skips every session already on disk and computes only the remainder,
// producing the exact aggregate an uninterrupted run would have.
//
// The command is a thin flag veneer over veritas.NewCampaign: every
// flag maps onto one campaign option, and the campaign carries the
// corpus, matrix, store fingerprinting, resume and reporting.
//
// With -shard i/n, the process executes only its slice of the corpus
// (sessions whose corpus index is congruent to i mod n) into its own
// store — the multi-machine dispatch primitive. Because the partition
// is by corpus index, every session keeps the seed it has in the
// unsharded run, so folding the n shard stores with -fold yields a
// corpus whose aggregate report is byte-identical to a single-process
// run of the same campaign.
//
// Usage:
//
//	fleet                                   # default campaign: 4 scenarios x 8 sessions, bba/bola x 5s/30s
//	fleet -workers 8 -sessions 25           # 100 sessions on 8 workers
//	fleet -scenarios lte,wifi -abrs bba -buffers 5
//	fleet -chunks 300 -samples 5 -seed 7    # paper-scale sessions
//	fleet -store campaign.store             # persist results while running
//	fleet -store campaign.store -resume     # pick up where a killed run stopped
//
//	# one machine per shard, then fold:
//	fleet -shard 0/2 -store shard0.store    # machine A
//	fleet -shard 1/2 -store shard1.store    # machine B
//	fleet -fold shard0.store -fold shard1.store -store campaign.store
//
// With -dispatch n, the process becomes a supervisor instead: it
// spawns n shard worker processes (re-execs of this binary), streams
// their progress, restarts crashed shards with resume into their same
// store under a bounded backoff budget, folds the shard stores into
// -store, prints the folded report — byte-identical to a
// single-process run — and, with -serve, serves the folded corpus:
//
//	fleet -dispatch 4 -store campaign.store             # 4 supervised workers
//	fleet -dispatch 4 -store campaign.store -serve :8077
//	fleet -fold campaign.store.shards -store refold.store  # refold by hand later
//
// -fold may be repeated, and each value may be a shard store, a
// comma-joined list, or a parent directory holding shard stores (the
// layout -dispatch writes).
//
// Interrupting with Ctrl-C cancels the fleet promptly; with -store the
// finished sessions survive the interrupt, and under -dispatch the
// interrupt is forwarded to every worker, whose stores stay resumable.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"veritas"
	"veritas/internal/cli"
)

// logger is the process-wide structured logger, built from -log and
// -log-level right after flag parsing. Everything fleet says on stderr
// goes through it; stdout stays reserved for the report.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// multiFlag collects a repeatable string flag; each occurrence may
// itself be a comma-joined list.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	parts := cli.SplitCSV(v)
	if len(parts) == 0 {
		return fmt.Errorf("empty value")
	}
	*m = append(*m, parts...)
	return nil
}

// dispatchRun runs the -dispatch path: supervise n workers, fold,
// report, and optionally serve the folded corpus.
func dispatchRun(ctx context.Context, o cli.CampaignFlags, n, restarts int, serveAddr, statusAddr, tracePath string, progress, quiet bool) error {
	opts, err := o.Options()
	if err != nil {
		return err
	}
	opts = append(opts,
		veritas.WithDispatchRestarts(restarts),
		veritas.WithDispatchEvents(cli.NewDispatchPrinter(logger, n, progress).Handle))
	if statusAddr != "" {
		opts = append(opts, veritas.WithDispatchStatus(statusAddr))
	}
	c, err := veritas.NewCampaign(opts...)
	if err != nil {
		return err
	}
	defer c.Close()
	corpus, err := c.Corpus()
	if err != nil {
		return err
	}
	arms, err := c.Arms()
	if err != nil {
		return err
	}
	logger.Info("dispatching campaign", "sessions", len(corpus), "arms", len(arms), "workers", n)
	if statusAddr != "" {
		logger.Info("status listener up", "addr", statusAddr, "endpoints", cli.StatusEndpoints)
	}
	res, err := c.Dispatch(ctx, n)
	// The trace export covers failed dispatches too: the traces that
	// made it up the protocol are exactly what a post-mortem wants.
	if terr := cli.WriteTrace(logger, c, tracePath); terr != nil && err == nil {
		err = terr
	}
	if err != nil {
		return err
	}
	logger.Info("dispatch complete", "folded", res.Folded, "store", o.StoreDir,
		"restarts", res.Restarts, "elapsed", res.Elapsed.Round(time.Millisecond).String())
	if err := c.WriteReport(os.Stdout); err != nil {
		return err
	}
	if serveAddr != "" {
		logger.Info("serving folded corpus", "addr", serveAddr)
		if err := c.Serve(ctx, serveAddr); err != nil && err != http.ErrServerClosed {
			return err
		}
	}
	flushSummary(c, quiet)
	return nil
}

// flushSummary writes the one-line JSON telemetry digest to stderr on
// clean shutdown; -quiet opts out.
func flushSummary(c *veritas.Campaign, quiet bool) {
	if quiet {
		return
	}
	if err := cli.WriteTelemetrySummary(os.Stderr, c.Telemetry().Summary()); err != nil {
		logger.Error("telemetry summary", "error", err)
	}
}

// flagConflicts rejects contradictory flag combinations up front, so
// no flag is ever silently ignored (which reads like it was honored)
// and no impossible value falls through to a run shape the user did
// not ask for. set holds the names of the flags explicitly passed on
// the command line (flag.Visit), dispatchN and storeDir their parsed
// values. Returns the first contradiction, or nil.
func flagConflicts(set map[string]bool, dispatchN int, storeDir string) error {
	if set["dispatch"] && dispatchN < 1 {
		// An explicit but impossible shard count must not silently fall
		// through to a normal single-process run.
		return fmt.Errorf("-dispatch %d: shard count must be at least 1", dispatchN)
	}
	if set["dispatch"] {
		// The supervisor owns sharding, resuming, and reporting; flags
		// that would contradict it must not be silently ignored.
		var stray []string
		for _, c := range []struct{ name, why string }{
			{"shard", "dispatch owns the partition"},
			{"fold", "dispatch folds for you"},
			{"resume", "dispatch workers always resume"},
		} {
			if set[c.name] {
				stray = append(stray, fmt.Sprintf("-%s (%s)", c.name, c.why))
			}
		}
		if len(stray) > 0 {
			return fmt.Errorf("-dispatch conflicts with %s", strings.Join(stray, ", "))
		}
		if storeDir == "" {
			return fmt.Errorf("-dispatch needs -store: the folded corpus has to land somewhere")
		}
		return nil
	}
	if set["serve"] {
		return fmt.Errorf("-serve requires -dispatch (use cmd/serve for a standalone query server)")
	}
	if set["status"] {
		return fmt.Errorf("-status requires -dispatch (there is no supervisor to report on; cmd/serve exposes /v1/status for a store)")
	}
	// -restarts configures the dispatch supervisor; without -dispatch it
	// would be silently ignored.
	if set["restarts"] {
		return fmt.Errorf("-restarts requires -dispatch (there is no supervisor to restart workers)")
	}
	if set["fold"] {
		if storeDir == "" {
			return fmt.Errorf("-fold needs -store as the destination directory")
		}
		// The fold is defined entirely by the shard stores (their
		// campaign.json IS the campaign); any other flag would be
		// silently ignored. -pprof, -log, -log-level and -quiet are pure
		// observability; they cannot shape the fold.
		allowed := map[string]bool{"fold": true, "store": true, "pprof": true, "log": true, "log-level": true, "quiet": true}
		var stray []string
		for name := range set {
			if !allowed[name] {
				stray = append(stray, "-"+name)
			}
		}
		if len(stray) > 0 {
			sort.Strings(stray)
			return fmt.Errorf("-fold takes only -store; the shard stores' campaign.json defines the campaign (drop %s)",
				strings.Join(stray, ", "))
		}
		return nil
	}
	if set["shard"] && storeDir == "" {
		// A shard without a store would compute its slice, print a
		// partial report indistinguishable from a whole-campaign one,
		// and persist nothing to fold.
		return fmt.Errorf("-shard needs -store: a shard's results exist to be folded")
	}
	return nil
}

// parseShard parses a -shard value of the form "i/n" (e.g. "0/3").
// Range validation lives in veritas.WithShard, not here.
func parseShard(s string) (index, count int, err error) {
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard %q is not of the form i/n (e.g. 0/3)", s)
	}
	if index, err = strconv.Atoi(strings.TrimSpace(lhs)); err != nil {
		return 0, 0, fmt.Errorf("shard index %q: %w", lhs, err)
	}
	if count, err = strconv.Atoi(strings.TrimSpace(rhs)); err != nil {
		return 0, 0, fmt.Errorf("shard count %q: %w", rhs, err)
	}
	return index, count, nil
}

// fold runs the -fold path: compact per-shard stores into one corpus at
// dst, then print the folded store's report.
func fold(dst string, srcs []string, quiet bool) error {
	n, err := veritas.FoldShards(dst, srcs...)
	if err != nil {
		return err
	}
	logger.Info("folded shard stores", "sessions", n, "store", dst)
	c, err := veritas.NewCampaign(veritas.WithStore(dst), veritas.WithReadOnlyStore())
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.WriteReport(os.Stdout); err != nil {
		return err
	}
	flushSummary(c, quiet)
	return nil
}

func main() {
	// When a dispatch supervisor re-exec'd this binary as a shard
	// worker, run the shard and exit; otherwise fall through to the
	// normal CLI.
	veritas.DispatchWorkerMain()

	var o cli.CampaignFlags
	o.Register(flag.CommandLine, "",
		"worker pool size (0 = GOMAXPROCS, split across workers under -dispatch)",
		"persist per-session results to this store directory")
	progress := flag.Bool("progress", false, "print per-session completions to stderr")
	flag.BoolVar(&o.Resume, "resume", false, "skip sessions already present in -store")
	shard := flag.String("shard", "", "execute only shard i/n of the corpus (e.g. 0/3); requires -store for later folding")
	var foldSrcs multiFlag
	flag.Var(&foldSrcs, "fold", "shard store(s) to fold into -store (repeatable; each value may be a store, a comma-joined list, or a parent directory of shard stores; no campaign runs)")
	dispatchN := flag.Int("dispatch", 0, "supervise n local shard worker processes, fold their stores into -store, and report")
	restarts := flag.Int("restarts", 2, "per-shard crash-restart budget under -dispatch")
	serveAddr := flag.String("serve", "", "with -dispatch: serve the folded corpus on this address after the campaign")
	statusAddr := flag.String("status", "", "with -dispatch: serve the live fleet status API (GET /v1/status, /metrics, /v1/trace) on this address while the campaign runs")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	logFormat := flag.String("log", "text", "structured log format on stderr: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	tracePath := flag.String("trace", "", "write the campaign's tail-sampled traces as Chrome trace-event JSON to this file (load in Perfetto)")
	quiet := flag.Bool("quiet", false, "skip the one-line JSON telemetry summary on clean shutdown")
	flag.Parse()
	log, err := cli.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		cli.Fatal(logger, err)
	}
	logger = log
	cli.StartPprof(logger, *pprofAddr)

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := flagConflicts(set, *dispatchN, o.StoreDir); err != nil {
		cli.Fatal(logger, err)
	}
	if *dispatchN > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := dispatchRun(ctx, o, *dispatchN, *restarts, *serveAddr, *statusAddr, *tracePath, *progress, *quiet); err != nil {
			cli.Fatal(logger, err)
		}
		return
	}
	if len(foldSrcs) > 0 {
		if err := fold(o.StoreDir, foldSrcs, *quiet); err != nil {
			cli.Fatal(logger, err)
		}
		return
	}
	if *shard != "" {
		idx, cnt, err := parseShard(*shard)
		if err != nil {
			cli.Fatal(logger, fmt.Errorf("-shard: %w", err))
		}
		o.ShardIndex, o.ShardCount = idx, cnt
	}

	opts, err := o.Options()
	if err != nil {
		cli.Fatal(logger, err)
	}
	var total int
	if *progress {
		opts = append(opts, veritas.WithProgress(func(r veritas.FleetSessionResult) {
			logger.Info("session done", "id", r.ID, "arms", len(r.Arms), "corpus", total)
		}))
	}
	c, err := veritas.NewCampaign(opts...)
	if err != nil {
		cli.Fatal(logger, err)
	}
	defer c.Close()

	if o.StoreDir != "" {
		// Opening the store up front runs the campaign-fingerprint
		// check before any corpus is built or worker started.
		st, err := c.Store()
		if err != nil {
			cli.Fatal(logger, err)
		}
		if rec := st.Recovered(); rec > 0 {
			logger.Warn("store recovered", "droppedTailBytes", rec)
		}
		if o.Resume {
			logger.Info("resuming", "storedSessions", st.Len())
		} else if st.Len() > 0 {
			logger.Info("store already holds sessions (use -resume to skip them)", "storedSessions", st.Len())
		}
	}

	corpus, err := c.Corpus()
	if err != nil {
		cli.Fatal(logger, err)
	}
	total = len(corpus)
	arms, err := c.Arms()
	if err != nil {
		cli.Fatal(logger, err)
	}
	if o.ShardCount > 1 {
		mine := veritas.ShardSessions(len(corpus), o.ShardIndex, o.ShardCount)
		logger.Info("running shard", "shard", o.ShardIndex, "of", o.ShardCount,
			"sessions", mine, "corpus", len(corpus), "arms", len(arms), "samples", o.Samples)
	} else {
		logger.Info("running campaign", "sessions", len(corpus), "arms", len(arms), "samples", o.Samples)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if _, err := c.Run(ctx); err != nil {
		if o.StoreDir != "" {
			// Keep finished sessions durable for -resume; a sync
			// failure here means they may NOT have survived, which the
			// user must hear about before trusting -resume.
			if st, serr := c.Store(); serr == nil {
				if serr := st.Sync(); serr != nil {
					logger.Error("store sync failed; stored sessions may be incomplete", "error", serr)
				}
			}
		}
		// Export whatever traces the failed run recorded — they are the
		// post-mortem — before exiting nonzero.
		if terr := cli.WriteTrace(logger, c, *tracePath); terr != nil {
			logger.Error("trace export failed", "error", terr)
		}
		cli.Fatal(logger, err)
	}

	if err := cli.WriteTrace(logger, c, *tracePath); err != nil {
		cli.Fatal(logger, err)
	}
	if err := c.WriteReport(os.Stdout); err != nil {
		cli.Fatal(logger, err)
	}
	flushSummary(c, *quiet)
}
