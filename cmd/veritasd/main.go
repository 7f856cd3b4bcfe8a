// Command veritasd is the networked fleet daemon: the same campaign
// cmd/fleet dispatches onto local worker processes, spread across
// machines. One process runs the dispatcher — the control plane that
// owns the campaign definition, leases shards, verifies and folds the
// uploaded shard stores — and any number of agent processes join it,
// lease shards, run them with re-exec'd workers, and ship the results
// back.
//
// Dispatcher (one machine; computes nothing itself):
//
//	veritasd -addr :9300 -shards 4 -store campaign.store -sessions 25
//
// Agents (each worker machine; -dir persists partial shards so a
// re-leased shard resumes instead of recomputing):
//
//	veritasd -join http://dispatcher:9300 -dir /var/tmp/veritasd
//
// Leases are TTL'd (-lease-ttl) and renewed by heartbeat. An agent
// that dies — or a straggler still holding a shard past -max-lease —
// loses the shard to the next agent that asks for work: work stealing.
// Because the corpus partition and every session seed are functions of
// the campaign alone, the folded report is byte-identical to a
// single-process run no matter how many agents ran, died, or were
// stolen from.
//
// While the campaign runs the dispatcher serves the fleet view on
// -addr: GET /v1/status (shard and agent rows), /metrics (per-agent
// labeled), /v1/trace. With -serve it keeps running after the fold and
// serves the folded corpus (GET /v1/report etc.) on the same address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"veritas"
	"veritas/internal/cli"
)

// logger is the process-wide structured logger, rebuilt from -log and
// -log-level right after flag parsing; stdout stays reserved for the
// dispatcher's report.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	// Re-exec entrypoints, in inheritance order: an agent's worker
	// children inherit the agent env, so the worker trigger must be
	// checked first.
	veritas.DispatchWorkerMain()
	veritas.FleetAgentMain()

	join := flag.String("join", "", "agent mode: join the fleet dispatcher at this base URL (e.g. http://host:9300) and work leases")
	name := flag.String("name", "", "agent mode: requested agent id (default: dispatcher-assigned)")
	dir := flag.String("dir", "", "agent mode: parent directory for local shard stores (default: a fresh temp dir; reuse one to resume partial shards)")
	addr := flag.String("addr", "", "dispatcher mode: listen address for agents and the fleet status API (e.g. :9300)")
	shards := flag.Int("shards", 0, "dispatcher mode: number of shards to lease out")
	leaseTTL := flag.Duration("lease-ttl", 0, "dispatcher mode: lease TTL; an agent silent this long is stolen from (default 10s)")
	maxLease := flag.Duration("max-lease", 0, "dispatcher mode: hard per-lease deadline after which even a heartbeating straggler is stolen from (default: none)")
	serve := flag.Bool("serve", false, "dispatcher mode: keep serving the folded corpus on -addr after the campaign")
	restarts := flag.Int("restarts", 2, "per-lease local crash-restart budget (both modes: agents restart their own workers)")
	progress := flag.Bool("progress", false, "log every per-shard progress event instead of the rate-limited fleet summary")
	tracePath := flag.String("trace", "", "dispatcher mode: write the fleet-wide Chrome trace-event JSON to this file after the campaign")

	// The dispatcher owns the campaign definition; agents learn it from
	// the lease spec.
	var o cli.CampaignFlags
	o.Register(flag.CommandLine, "dispatcher mode: ",
		"worker pool size per agent worker process (0 = its GOMAXPROCS)",
		"fold the fleet's shard stores into this corpus store directory")

	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	logFormat := flag.String("log", "text", "structured log format on stderr: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	quiet := flag.Bool("quiet", false, "skip the one-line JSON telemetry summary on clean shutdown")
	flag.Parse()

	log, err := cli.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		cli.Fatal(logger, err)
	}
	logger = log
	cli.StartPprof(logger, *pprofAddr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *join != "" && *addr != "":
		cli.Fatal(logger, errors.New("-join (agent) and -addr (dispatcher) are mutually exclusive: one process, one role"))
	case *join != "":
		// Dispatcher-shaping flags mean nothing to an agent; the lease
		// spec carries the campaign. Refuse rather than silently ignore.
		if stray := strayAgentFlags(flag.CommandLine); len(stray) > 0 {
			cli.Fatal(logger, fmt.Errorf("-join takes only agent flags; the dispatcher's lease defines the campaign (drop %s)",
				strings.Join(stray, ", ")))
		}
		if err := agentMain(ctx, *join, *name, *dir, *restarts, *progress); err != nil {
			cli.Fatal(logger, err)
		}
	case *addr != "":
		if *shards < 1 {
			cli.Fatal(logger, fmt.Errorf("-shards %d: a dispatcher needs at least 1 shard to lease out", *shards))
		}
		if o.StoreDir == "" {
			cli.Fatal(logger, errors.New("-addr needs -store: the folded corpus has to land somewhere"))
		}
		if err := dispatcherMain(ctx, o, *addr, *shards, *leaseTTL, *maxLease, *tracePath, *serve, *progress, *quiet); err != nil {
			cli.Fatal(logger, err)
		}
	default:
		cli.Fatal(logger, errors.New("pick a role: -addr :9300 -shards n -store dir (dispatcher) or -join http://host:9300 (agent)"))
	}
}

// strayAgentFlags returns the explicitly-set flags that have no
// meaning in agent mode.
func strayAgentFlags(fs *flag.FlagSet) []string {
	agentOK := map[string]bool{
		"join": true, "name": true, "dir": true, "restarts": true,
		"progress": true, "pprof": true, "log": true, "log-level": true, "quiet": true,
	}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if !agentOK[f.Name] {
			stray = append(stray, "-"+f.Name)
		}
	})
	return stray
}

// agentMain runs the agent role: join the dispatcher and work leases
// until the campaign completes or ctx is cancelled.
func agentMain(ctx context.Context, join, name, dir string, restarts int, verbose bool) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "veritasd-agent-")
		if err != nil {
			return err
		}
		dir = tmp
		logger.Info("using a fresh store directory (pass -dir to make partial shards resumable across agent restarts)", "dir", dir)
	}
	cfg := veritas.FleetAgentConfig{
		Dispatcher: join,
		Name:       name,
		Dir:        dir,
		Restarts:   restarts,
		Logf: func(format string, args ...any) {
			logger.Info("agent: " + fmt.Sprintf(format, args...))
		},
	}
	if verbose {
		cfg.Events = func(e veritas.DispatchEvent) {
			if e.Type == veritas.DispatchProgress {
				logger.Info("shard progress", "shard", e.Shard, "done", e.Done, "total", e.Total)
			}
		}
	}
	res, err := veritas.RunFleetAgent(ctx, cfg)
	if res != nil {
		logger.Info("agent done", "agent", res.Agent, "leases", res.Leases,
			"completed", res.Completed, "lost", res.Lost, "released", res.Released, "restarts", res.Restarts)
	}
	if errors.Is(err, veritas.ErrFleetDispatcherGone) && res != nil && res.Completed > 0 {
		// The dispatcher folding and exiting out from under a finished
		// agent is the normal end of a campaign, not an agent failure.
		logger.Info("dispatcher gone; campaign presumably complete")
		return nil
	}
	return err
}

// dispatcherMain runs the dispatcher role: serve the fleet, fold,
// report, and optionally keep serving the folded corpus.
func dispatcherMain(ctx context.Context, o cli.CampaignFlags, addr string, shards int, ttl, maxLease time.Duration, tracePath string, serve, progress, quiet bool) error {
	opts, err := o.Options()
	if err != nil {
		return err
	}
	opts = append(opts,
		veritas.WithFleet(addr),
		veritas.WithFleetReady(func(bound string) {
			logger.Info("fleet dispatcher up", "addr", bound, "shards", shards,
				"endpoints", "POST /v1/agents /v1/lease /v1/heartbeat /v1/upload; GET /v1/status /metrics /v1/trace")
		}),
		veritas.WithDispatchEvents(cli.NewDispatchPrinter(logger, shards, progress).Handle),
	)
	if ttl > 0 {
		opts = append(opts, veritas.WithFleetLease(ttl))
	}
	if maxLease > 0 {
		opts = append(opts, veritas.WithFleetMaxLease(maxLease))
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
	logger.Info("serving fleet campaign", "sessions", len(corpus), "arms", len(arms), "shards", shards)

	res, err := c.ServeFleet(ctx, shards)
	// Export whatever traces the run streamed up even when it failed:
	// they are the post-mortem.
	if terr := cli.WriteTrace(logger, c, tracePath); terr != nil && err == nil {
		err = terr
	}
	if err != nil {
		return err
	}
	logger.Info("fleet campaign complete", "folded", res.Folded, "store", o.StoreDir,
		"steals", res.Steals, "agents", len(res.Agents),
		"elapsed", res.Elapsed.Round(time.Millisecond).String())
	if err := c.WriteReport(os.Stdout); err != nil {
		return err
	}
	if serve {
		// ServeFleet released -addr when the campaign finished; rebind
		// it for plain corpus serving (agents polling for more work get
		// 404s now, which RunFleetAgent treats as "dispatcher gone").
		logger.Info("serving folded corpus", "addr", addr)
		// The fleet listener's close can race this bind when the
		// campaign folds instantly (all shards already shipped), so
		// give the address a moment to free up.
		err := c.Serve(ctx, addr)
		for i := 0; i < 20 && err != nil && strings.Contains(err.Error(), "address already in use"); i++ {
			time.Sleep(50 * time.Millisecond)
			err = c.Serve(ctx, addr)
		}
		if err != nil && err != http.ErrServerClosed {
			return err
		}
	}
	if !quiet {
		if err := cli.WriteTelemetrySummary(os.Stderr, c.Telemetry().Summary()); err != nil {
			logger.Error("telemetry summary", "error", err)
		}
	}
	return nil
}
