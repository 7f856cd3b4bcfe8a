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
	"sort"
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

// daemonFlags is the command line of both roles.
type daemonFlags struct {
	join, name, dir, addr, tracePath string
	pprofAddr, logFormat, logLevel   string
	shards, restarts                 int
	leaseTTL, maxLease               time.Duration
	serve, progress, quiet           bool
	campaign                         cli.CampaignFlags
}

// register declares every flag of both roles on fs.
func (f *daemonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.join, "join", "", "agent mode: join the fleet dispatcher at this base URL (e.g. http://host:9300) and work leases")
	fs.StringVar(&f.name, "name", "", "agent mode: requested agent id (default: dispatcher-assigned)")
	fs.StringVar(&f.dir, "dir", "", "agent mode: parent directory for local shard stores (default: a fresh temp dir; reuse one to resume partial shards)")
	fs.IntVar(&f.restarts, "restarts", 2, "agent mode: per-lease local crash-restart budget (0 disables restarts)")
	fs.StringVar(&f.addr, "addr", "", "dispatcher mode: listen address for agents and the fleet status API (e.g. :9300)")
	fs.IntVar(&f.shards, "shards", 0, "dispatcher mode: number of shards to lease out")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", 0, "dispatcher mode: lease TTL; an agent silent this long is stolen from (default 10s)")
	fs.DurationVar(&f.maxLease, "max-lease", 0, "dispatcher mode: hard per-lease deadline after which even a heartbeating straggler is stolen from (default: none)")
	fs.BoolVar(&f.serve, "serve", false, "dispatcher mode: keep serving the folded corpus on -addr after the campaign")
	fs.StringVar(&f.tracePath, "trace", "", "dispatcher mode: write the fleet-wide Chrome trace-event JSON to this file after the campaign")
	fs.BoolVar(&f.progress, "progress", false, "log every per-shard progress event instead of the rate-limited fleet summary")

	// The dispatcher owns the campaign definition; agents learn it from
	// the lease spec.
	f.campaign.Register(fs, "dispatcher mode: ",
		"worker pool size per agent worker process (0 = its GOMAXPROCS)",
		"fold the fleet's shard stores into this corpus store directory")

	fs.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.logFormat, "log", "text", "structured log format on stderr: text or json")
	fs.StringVar(&f.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.BoolVar(&f.quiet, "quiet", false, "skip the one-line JSON telemetry summary on clean shutdown")
}

func main() {
	// An agent's workers are re-execs of this binary: the worker
	// entrypoint runs their shard and exits.
	veritas.DispatchWorkerMain()

	var f daemonFlags
	f.register(flag.CommandLine)
	flag.Parse()

	log, err := cli.NewLogger(os.Stderr, f.logFormat, f.logLevel)
	if err != nil {
		cli.Fatal(logger, err)
	}
	logger = log
	cli.StartPprof(logger, f.pprofAddr)

	set := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if err := flagConflicts(set, f.join, f.addr); err != nil {
		cli.Fatal(logger, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if f.join != "" {
		err = agentMain(ctx, f)
	} else {
		err = dispatcherMain(ctx, f)
	}
	if err != nil {
		cli.Fatal(logger, err)
	}
}

// agentFlags are read only by an agent and sharedFlags by both roles;
// every other flag shapes the dispatcher's campaign.
var (
	agentFlags  = map[string]bool{"join": true, "name": true, "dir": true, "restarts": true}
	sharedFlags = map[string]bool{"progress": true, "pprof": true, "log": true, "log-level": true, "quiet": true}
)

// flagConflicts returns why the explicitly set flags (set, by name) do
// not make one role, or nil: exactly one of -join (agent) and -addr
// (dispatcher), and no flag the chosen role would silently ignore.
func flagConflicts(set map[string]bool, join, addr string) error {
	switch {
	case join != "" && addr != "":
		return errors.New("-join (agent) and -addr (dispatcher) are mutually exclusive: one process, one role")
	case join == "" && addr == "":
		return errors.New("pick a role: -addr :9300 -shards n -store dir (dispatcher) or -join http://host:9300 (agent)")
	}
	agent := join != ""
	var stray []string
	for name := range set {
		if !sharedFlags[name] && agentFlags[name] != agent {
			stray = append(stray, "-"+name)
		}
	}
	if len(stray) == 0 {
		return nil
	}
	sort.Strings(stray)
	if agent {
		return fmt.Errorf("-join takes only agent flags; the dispatcher's lease defines the campaign (drop %s)", strings.Join(stray, ", "))
	}
	return fmt.Errorf("-addr takes no agent flags; each agent sets its own (drop %s)", strings.Join(stray, ", "))
}

// agentConfig is the FleetAgentConfig the agent flags ask for.
func (f daemonFlags) agentConfig() veritas.FleetAgentConfig {
	cfg := veritas.FleetAgentConfig{
		Dispatcher: f.join,
		Name:       f.name,
		Dir:        f.dir,
		Restarts:   f.restarts,
		Logf: func(format string, args ...any) {
			logger.Info("agent: " + fmt.Sprintf(format, args...))
		},
	}
	if f.progress {
		cfg.Events = func(e veritas.DispatchEvent) {
			if e.Type == veritas.DispatchProgress {
				logger.Info("shard progress", "shard", e.Shard, "done", e.Done, "total", e.Total)
			}
		}
	}
	return cfg
}

// agentMain runs the agent role: join the dispatcher and work leases
// until the campaign completes or ctx is cancelled.
func agentMain(ctx context.Context, f daemonFlags) error {
	cfg := f.agentConfig()
	if cfg.Dir == "" {
		tmp, err := os.MkdirTemp("", "veritasd-agent-")
		if err != nil {
			return err
		}
		cfg.Dir = tmp
		logger.Info("using a fresh store directory (pass -dir to make partial shards resumable across agent restarts)", "dir", tmp)
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
func dispatcherMain(ctx context.Context, f daemonFlags) error {
	o, addr, shards := f.campaign, f.addr, f.shards
	if shards < 1 {
		return fmt.Errorf("-shards %d: a dispatcher needs at least 1 shard to lease out", shards)
	}
	if o.StoreDir == "" {
		return errors.New("-addr needs -store: the folded corpus has to land somewhere")
	}
	opts, err := o.Options()
	if err != nil {
		return err
	}
	opts = append(opts,
		veritas.WithFleet(addr),
		veritas.WithFleetReady(func(bound string) {
			logger.Info("fleet dispatcher up", "addr", bound, "shards", shards,
				"endpoints", "POST /v1/agents /v1/lease /v1/heartbeat /v1/release /v1/upload; GET "+cli.StatusEndpoints)
		}),
		veritas.WithDispatchEvents(cli.NewDispatchPrinter(logger, shards, f.progress).Handle),
	)
	if f.leaseTTL > 0 {
		opts = append(opts, veritas.WithFleetLease(f.leaseTTL))
	}
	if f.maxLease > 0 {
		opts = append(opts, veritas.WithFleetMaxLease(f.maxLease))
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
	if terr := cli.WriteTrace(logger, c, f.tracePath); terr != nil && err == nil {
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
	if f.serve {
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
	if !f.quiet {
		if err := cli.WriteTelemetrySummary(os.Stderr, c.Telemetry().Summary()); err != nil {
			logger.Error("telemetry summary", "error", err)
		}
	}
	return nil
}
