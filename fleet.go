package veritas

// The networked fleet layer: Campaign.ServeFleet is Campaign.Dispatch
// with the worker pool spread across machines. The dispatching process
// becomes a control plane — it computes nothing itself — and any number
// of veritasd agents (or any binary calling RunFleetAgent) join over
// HTTP, lease shards, run them with the exact same re-exec'd
// DispatchWorkerMain machinery a local dispatch uses, and ship their
// shard stores back for verification and folding:
//
//	// the dispatcher machine
//	c, _ := veritas.NewCampaign(
//		veritas.WithSessions(25),
//		veritas.WithMatrix([]string{"bba", "bola"}, []float64{5, 30}),
//		veritas.WithStore("campaign.store"),
//		veritas.WithFleet("0.0.0.0:9300"),
//	)
//	res, _ := c.ServeFleet(ctx, 8) // 8 shards, leased to whoever joins
//	_ = c.WriteReport(os.Stdout)   // byte-identical to a 1-process run
//
//	// each worker machine
//	veritasd -join http://dispatcher:9300 -dir /tmp/agent
//
// Leases are TTL'd and renewed by heartbeat; an agent that dies (or a
// straggler past WithFleetMaxLease) has its shard re-leased to another
// agent — work stealing. Shard determinism plus resume/fold semantics
// guarantee the folded report is byte-identical no matter how leases
// moved.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"time"

	"veritas/internal/dispatch"
	"veritas/internal/fleetd"
	"veritas/internal/serve"
)

// FleetDispatchResult summarizes a completed networked dispatch: the
// accepted shard store directories, the steal count (leases revoked
// from dead or straggling agents), the folded session count, and every
// agent that registered. (FleetResult, the per-session result row, is
// unrelated legacy naming from the pre-Campaign API.)
type FleetDispatchResult = fleetd.Result

// Fleet lifecycle event types, re-exported so WithDispatchEvents
// callbacks can switch on them alongside the local dispatch events.
const (
	// DispatchLease: a shard was leased to an agent (Agent/Epoch set).
	DispatchLease = dispatch.EventLease
	// DispatchSteal: a lease expired (missed heartbeats or straggler
	// deadline) and its shard went back to the pending queue.
	DispatchSteal = dispatch.EventSteal
	// DispatchUpload: an agent's shard store was verified and accepted.
	DispatchUpload = dispatch.EventUpload
)

// WithFleet makes the campaign dispatchable over the network: ServeFleet
// listens on addr (host:port; port 0 picks a free port, see
// WithFleetReady) for veritasd agents to join.
func WithFleet(addr string) CampaignOption {
	return func(o *campaignOptions) error {
		if addr == "" {
			return errors.New("veritas: WithFleet needs a listen address")
		}
		o.fleetAddr = addr
		return nil
	}
}

// WithFleetLease sets the lease TTL (default 10s): an agent that goes
// this long without a heartbeat loses its shard to the next agent that
// asks. Shorter TTLs steal faster but tolerate less network jitter;
// heartbeats are sent at TTL/3.
func WithFleetLease(ttl time.Duration) CampaignOption {
	return func(o *campaignOptions) error {
		if ttl <= 0 {
			return fmt.Errorf("veritas: fleet lease TTL %v must be positive", ttl)
		}
		o.fleetTTL = ttl
		return nil
	}
}

// WithFleetMaxLease sets a hard per-lease deadline: a shard still
// unfinished this long after it was leased is re-leased even if its
// agent heartbeats on time, so one straggling machine cannot hold the
// campaign's tail hostage. Zero (the default) disables the deadline.
// Size it generously — a stolen straggler's partial work is not lost
// (the re-leased worker resumes from whatever the store holds if the
// same agent reacquires it), but bouncing a healthy slow shard between
// agents burns its lease budget.
func WithFleetMaxLease(d time.Duration) CampaignOption {
	return func(o *campaignOptions) error {
		if d <= 0 {
			return fmt.Errorf("veritas: fleet max lease %v must be positive (omit the option for no deadline)", d)
		}
		o.fleetMaxLease = d
		return nil
	}
}

// WithFleetReady registers fn to be called once ServeFleet's listener
// is bound, with the concrete address — the way to learn the port when
// WithFleet was given ":0", and the hook tests and CLIs use to know
// when agents may join.
func WithFleetReady(fn func(addr string)) CampaignOption {
	return func(o *campaignOptions) error {
		if fn == nil {
			return errors.New("veritas: WithFleetReady(nil)")
		}
		o.fleetReady = fn
		return nil
	}
}

// ServeFleet executes the campaign as a networked fleet: it binds the
// WithFleet address, leases the n shards to whatever agents join, and
// supervises the campaign to completion — relaying each agent's
// progress, per-agent-labeled telemetry and traces into the fleet
// status view (/v1/status, /metrics, /v1/trace on the fleet listener),
// verifying every uploaded shard store (CRC framing, shard assignment,
// campaign fingerprint, segment integrity) before acceptance, and
// re-leasing shards away from agents that miss heartbeats
// (WithFleetLease) or straggle past WithFleetMaxLease. When every
// shard's store is accepted they are folded into the campaign store;
// the folded report — Report, WriteReport, Serve, /v1/report — is
// byte-identical to a single-process run of the same campaign, no
// matter how many agents ran, died, or had their work stolen. Before
// it returns and closes the listener, every live agent is told the
// campaign is done (waiting at most twice the lease TTL, at least a
// second), so surviving agents exit cleanly rather than find the
// dispatcher gone.
//
// The constraints of Dispatch apply (WithStore required; no
// WithCorpus/WithArms/WithProgress/WithShard).
// Cancelling ctx aborts the dispatch; accepted shard stores persist
// under the dispatch directory, so rerunning resumes — already
// accepted shards are adopted, not recomputed.
func (c *Campaign) ServeFleet(ctx context.Context, n int) (*FleetDispatchResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("veritas: fleet shard count %d must be at least 1", n)
	}
	o := c.opt
	if o.fleetAddr == "" {
		return nil, errors.New("veritas: ServeFleet needs WithFleet(addr): agents have to reach the dispatcher somewhere")
	}
	// The lease's worker spec carries no shard assignment (the agent
	// fills shard/of/store per lease). Unlike a local dispatch, the
	// worker count is not split across shards — each agent machine runs
	// one worker at a time and should use its own capacity (or the
	// explicit WithWorkers).
	storeDir, dir, lease, err := c.dispatchPreflight("ServeFleet", "the fleet dispatcher")
	if err != nil {
		return nil, err
	}
	if err := c.beginDispatch(); err != nil {
		return nil, err
	}
	defer c.end(nil)
	spec, err := json.Marshal(lease)
	if err != nil {
		return nil, err
	}

	userEvents := o.dispatchEvents
	d, err := fleetd.New(fleetd.Config{
		Shards:       n,
		Dir:          dir,
		FoldInto:     storeDir,
		Fingerprints: c.fingerprints(),
		Spec:         spec,
		LeaseTTL:     o.fleetTTL,
		MaxLease:     o.fleetMaxLease,
		OnEvent:      userEvents,
		Telemetry:    c.reg,
		Tracer:       c.trc,
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()

	ln, err := net.Listen("tcp", o.fleetAddr)
	if err != nil {
		return nil, fmt.Errorf("veritas: fleet listener: %w", err)
	}
	srv := serve.NewServer(d.Handler())
	go srv.Serve(ln)
	defer srv.Close()
	if o.fleetReady != nil {
		o.fleetReady(ln.Addr().String())
	}

	res, err := d.Wait(ctx)
	if err == nil {
		// Agents still polling hear "done" before the listener closes.
		d.Drain(ctx)
	}
	// Stash the agents' streamed trace sets (even on failure — partial
	// traces are a crash post-mortem) so Trace and /v1/trace keep
	// serving the fleet-wide view after the dispatch.
	c.mu.Lock()
	c.workerTraces = d.WorkerTraces()
	c.mu.Unlock()
	return res, err
}

// FleetAgentConfig parameterizes RunFleetAgent: one machine's worth of
// fleet capacity.
type FleetAgentConfig struct {
	// Dispatcher is the fleet dispatcher's base URL, e.g.
	// "http://dispatcher:9300" (bare host:port works too). Required.
	Dispatcher string
	// Name is the agent's requested id (the dispatcher de-duplicates);
	// empty means dispatcher-assigned. Agent ids label everything the
	// agent streams into the fleet view: status rows, telemetry
	// (agent="..."), traces.
	Name string
	// Dir is the parent directory for the agent's local shard stores.
	// Reusing it across runs lets a re-leased shard resume from
	// whatever this agent already computed. Required.
	Dir string
	// Restarts is the local crash-restart budget per lease: 0 disables
	// restarts and a negative budget is refused. When it is exhausted
	// the lease is released back to the dispatcher.
	Restarts int
	// Events, when set, receives the agent's local worker lifecycle
	// event stream.
	Events func(DispatchEvent) `json:"-"`
	// Logf, when set, receives one line per agent decision (leases,
	// uploads, steals observed).
	Logf func(format string, args ...any) `json:"-"`
}

// RunFleetAgent joins a fleet dispatcher and works shard leases until
// the campaign completes, ctx is cancelled, or the dispatcher goes
// away. It is the agent side of Campaign.ServeFleet; cmd/veritasd
// wraps it in a daemon.
//
// The result is non-nil whenever registration succeeded, even
// alongside an error. ErrFleetDispatcherGone (possibly wrapped) means
// the dispatcher stopped answering — for an agent outliving a
// completed campaign that is a normal way to exit.
func RunFleetAgent(ctx context.Context, cfg FleetAgentConfig) (*FleetAgentResult, error) {
	// Workers are re-execs of this binary, which therefore must call
	// DispatchWorkerMain at the top of main.
	binary, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("veritas: resolving the worker binary: %w", err)
	}
	return fleetd.RunAgent(ctx, fleetd.AgentConfig{
		Dispatcher:  cfg.Dispatcher,
		Name:        cfg.Name,
		Dir:         cfg.Dir,
		MaxRestarts: cfg.Restarts,
		OnEvent:     cfg.Events,
		Logf:        cfg.Logf,
		Command: func(raw json.RawMessage, shard, of int, storeDir string) (*exec.Cmd, error) {
			// The lease carries the dispatcher campaign's result-shaping
			// spec; the agent adds the shard assignment and its local
			// store, and hands the whole thing to the worker the same
			// way a local dispatch does.
			var spec workerSpec
			if len(raw) > 0 {
				if err := json.Unmarshal(raw, &spec); err != nil {
					return nil, fmt.Errorf("veritas: decoding lease spec: %w", err)
				}
			}
			return spec.command(binary, os.Environ(), shard, of, storeDir)
		},
	})
}

// FleetAgentResult summarizes an agent's run: leases worked, uploads
// accepted, leases lost to stealing, leases released after local
// failure, local worker restarts.
type FleetAgentResult = fleetd.AgentResult

// ErrFleetDispatcherGone is returned (possibly wrapped) by
// RunFleetAgent when the dispatcher stops answering.
var ErrFleetDispatcherGone = fleetd.ErrDispatcherGone
