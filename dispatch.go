package veritas

// The dispatch layer: one call that launches, babysits, and folds a
// whole multi-process sharded campaign. Where WithShard/FoldShards are
// the manual primitives (one process per machine, fold by hand),
// Campaign.Dispatch is the supervised local form:
//
//	c, _ := veritas.NewCampaign(
//		veritas.WithSessions(25),
//		veritas.WithMatrix([]string{"bba", "bola"}, []float64{5, 30}),
//		veritas.WithStore("campaign.store"),
//	)
//	res, _ := c.Dispatch(ctx, 4) // 4 worker processes -> folded store
//	_ = c.WriteReport(os.Stdout) // byte-identical to a 1-process run
//
// Dispatch spawns one worker process per shard (a re-exec of the
// running executable), streams their progress, restarts crashed shards
// with resume into their same store under a bounded, exponentially
// backed-off budget, and folds the shard stores into the campaign's
// store. The host binary must call DispatchWorkerMain at the top of
// main so the re-exec'd children run the worker instead of the host
// program.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"veritas/internal/dispatch"
	"veritas/internal/serve"
)

// Dispatch event/result types re-exported for campaign callers.
type (
	// DispatchEvent is one entry of the supervisor's merged event
	// stream: worker starts, per-shard progress, forwarded output
	// lines, exits, restarts, and the final fold.
	DispatchEvent = dispatch.Event
	// DispatchResult summarizes a completed dispatch: shard store
	// directories, crash-restart count, folded session count.
	DispatchResult = dispatch.Result
)

// Dispatch event types, re-exported so WithDispatchEvents callbacks
// can switch on them.
const (
	DispatchStart    = dispatch.EventStart
	DispatchProgress = dispatch.EventProgress
	DispatchLine     = dispatch.EventLine
	DispatchExit     = dispatch.EventExit
	DispatchRestart  = dispatch.EventRestart
	DispatchFold     = dispatch.EventFold
	// DispatchTelemetry events carry a worker's metrics snapshot
	// (Event.Telemetry); the supervisor's status tracker merges the
	// latest per shard into the fleet view WithDispatchStatus serves.
	DispatchTelemetry = dispatch.EventTelemetry
	// DispatchTraces events carry a worker's latest notable-trace set
	// (Event.Traces); the status tracker keeps the latest per shard and
	// merges them into the fleet-wide /v1/trace view and Campaign.Trace.
	DispatchTraces = dispatch.EventTraces
)

// dispatchWorkerEnv carries the worker spec to a re-exec'd child; its
// presence is what turns DispatchWorkerMain into the worker.
const dispatchWorkerEnv = "VERITAS_DISPATCH_WORKER"

// WithDispatchRestarts bounds the per-shard crash-restart budget: a
// shard may be relaunched at most n times after its first run (default
// 2). n = 0 disables restarts; a shard that fails n+1 times fails the
// dispatch and cancels its siblings (their stores remain resumable).
func WithDispatchRestarts(n int) CampaignOption {
	return func(o *campaignOptions) error {
		if n < 0 {
			return fmt.Errorf("veritas: dispatch restarts %d is negative (0 disables restarts)", n)
		}
		o.dispatchRestarts = n
		return nil
	}
}

// WithDispatchEvents streams the supervisor's merged event stream —
// worker starts and exits with PIDs, per-shard progress counts,
// forwarded worker output lines, restarts, the fold — to fn. Calls are
// serialized; fn needs no locking.
func WithDispatchEvents(fn func(DispatchEvent)) CampaignOption {
	return func(o *campaignOptions) error {
		if fn == nil {
			return errors.New("veritas: WithDispatchEvents(nil)")
		}
		o.dispatchEvents = fn
		return nil
	}
}

// workerSpec is the wire format Dispatch hands a worker process via
// the environment (and ServeFleet hands an agent in a lease): the
// campaign's result-shaping spec, flat — zero values mean the campaign
// defaults, so the worker's fingerprint matches the parent's — plus the
// per-process execution settings, the shard assignment and the shard
// store directory.
type workerSpec struct {
	campaignSpec
	Workers int    `json:"workers,omitempty"`
	NoTelem bool   `json:"notelemetry,omitempty"`
	NoTrace bool   `json:"notracing,omitempty"`
	Shard   int    `json:"shard"`
	Of      int    `json:"of"`
	Store   string `json:"store"`
}

// command builds the worker process for shard of of: binary, re-exec'd
// with env plus the spec — assignment and store filled in — under
// dispatchWorkerEnv, which is what makes its DispatchWorkerMain run.
func (s workerSpec) command(binary string, env []string, shard, of int, store string) (*exec.Cmd, error) {
	s.Shard, s.Of, s.Store = shard, of, store
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(binary)
	cmd.Env = append(env, dispatchWorkerEnv+"="+string(b))
	return cmd, nil
}

// Dispatch executes the campaign as n supervised local worker
// processes — the one-command replacement for launching one
// `fleet -shard i/n` per terminal and folding by hand. Each worker
// computes shard i of n into its own store under the dispatch
// directory, the store directory plus ".shards"; crashed workers are
// restarted with resume into their same store (bounded by
// WithDispatchRestarts, after a backoff that starts at 500ms and
// doubles); when every shard completes, the shard stores are folded
// into the campaign's store, whose aggregate report — and served
// /v1/report body — is byte-identical to a single-process run of the
// same campaign. After Dispatch returns, Report, WriteReport, Serve
// and Handler answer from the folded store.
//
// Dispatch requires WithStore (the fold destination) and a campaign
// whose result-shaping options are serializable across processes: no
// WithCorpus or WithArms (Go values cannot cross a process boundary),
// no WithShard (Dispatch owns the partition), and no WithProgress (use
// WithDispatchEvents for the supervised event stream). Cancelling ctx
// terminates every worker gracefully; finished sessions are durable in
// the shard stores, so rerunning Dispatch resumes where the shards
// stopped.
//
// The running executable is the worker binary, so it must call
// DispatchWorkerMain at the top of main.
func (c *Campaign) Dispatch(ctx context.Context, n int) (*DispatchResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("veritas: dispatch shard count %d must be at least 1", n)
	}
	o := c.opt
	storeDir, dir, spec, err := c.dispatchPreflight("Dispatch", "Dispatch")
	if err != nil {
		return nil, err
	}
	if err := c.beginDispatch(); err != nil {
		return nil, err
	}
	defer c.end(nil)

	binary, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("veritas: resolving the worker binary: %w", err)
	}
	// One machine runs all n workers: with no explicit worker count,
	// split GOMAXPROCS across them instead of oversubscribing n-fold.
	// (Worker counts never change results, only speed.)
	if spec.Workers == 0 {
		if spec.Workers = runtime.GOMAXPROCS(0) / n; spec.Workers < 1 {
			spec.Workers = 1
		}
	}

	// The status tracker folds the event stream into the queryable
	// fleet view. It always runs (Handle is a few map updates) so
	// WithDispatchEvents consumers and the status listener see one
	// consistent picture; the listener itself is opt-in.
	tracker := dispatch.NewStatus(n, c.reg, c.trc)
	userEvents := o.dispatchEvents

	cfg := dispatch.Config{
		Shards: n,
		Dir:    dir,
		Tracer: c.trc,
		// The campaign's acceptable fingerprints make the fold-target
		// replaceability check decidable before any worker runs.
		FoldInto:     storeDir,
		Fingerprints: c.fingerprints(),
		MaxRestarts:  o.dispatchRestarts,
		OnEvent: func(e DispatchEvent) {
			tracker.Handle(e)
			if userEvents != nil {
				userEvents(e)
			}
		},
		Command: func(w dispatch.Worker) (*exec.Cmd, error) {
			return spec.command(binary, os.Environ(), w.Shard, w.Shards, w.StoreDir)
		},
	}
	if o.dispatchStatus != "" {
		ln, err := net.Listen("tcp", o.dispatchStatus)
		if err != nil {
			return nil, fmt.Errorf("veritas: dispatch status listener: %w", err)
		}
		// The live query tier rides on the status listener: while the
		// workers are still appending, /v1/live/report (and cdf, series,
		// percentiles) serves the combined shard aggregates — the same
		// numbers the folded store will serve once the dispatch lands.
		live := serve.NewLive(dir, serve.WithWatchInterval(250*time.Millisecond))
		defer live.Close()
		mux := http.NewServeMux()
		mux.Handle("/", tracker.Handler())
		mux.Handle("GET /v1/live/", live)
		srv := serve.NewServer(mux)
		go srv.Serve(ln)
		defer srv.Close()
	}
	res, err := dispatch.Run(ctx, cfg)
	// Stash the workers' streamed trace sets (even on failure — partial
	// traces are exactly what a crash post-mortem wants) so Trace and
	// /v1/trace keep serving the fleet-wide view after the dispatch.
	c.mu.Lock()
	c.workerTraces = tracker.WorkerTraces()
	c.mu.Unlock()
	return res, err
}

// dispatchPreflight is the option check Dispatch and ServeFleet share:
// it refuses campaigns that cannot be fanned out across processes
// (method names the caller in the errors, owner whoever owns the shard
// partition) and derives the fold destination, the directory the shard
// stores live under, and the worker spec carrying every result-shaping
// option — shard assignment and store left for the caller to fill.
func (c *Campaign) dispatchPreflight(method, owner string) (storeDir, shardDir string, spec workerSpec, err error) {
	o := c.opt
	switch {
	case o.storeDir == "":
		err = fmt.Errorf("veritas: %s needs WithStore: the folded corpus has to land somewhere", method)
	case o.readOnly:
		err = errors.New("veritas: campaign store is read-only (drop WithReadOnlyStore to dispatch)")
	case o.shardCount > 0:
		err = fmt.Errorf("veritas: WithShard and %s are mutually exclusive: %s owns the shard partition", method, owner)
	case o.callerSupplied():
		err = fmt.Errorf("veritas: %s cannot serialize WithCorpus/WithArms across processes; run those campaigns in-process or shard them by hand", method)
	case o.onResult != nil:
		err = errors.New("veritas: WithProgress does not cross the worker process boundary; use WithDispatchEvents")
	}
	if err != nil {
		return "", "", workerSpec{}, err
	}
	// Clean before deriving the shard directory: a trailing slash would
	// nest it inside the store.
	storeDir = filepath.Clean(o.storeDir)
	return storeDir, storeDir + ".shards", workerSpec{
		campaignSpec: o.campaignSpec,
		Workers:      o.workers,
		NoTelem:      o.noTelemetry,
		NoTrace:      o.noTracing,
	}, nil
}

// beginDispatch marks the campaign running and insists its store is
// not open in this process: the fold replaces the store directory on
// disk, which must not happen under a live handle.
func (c *Campaign) beginDispatch() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return errors.New("veritas: campaign is already running")
	}
	if c.st != nil {
		return errors.New("veritas: the campaign store is open in this process; Close it before Dispatch (the fold replaces the store directory)")
	}
	c.running = true
	return nil
}

// DispatchWorkerMain is the worker entrypoint behind Campaign.Dispatch.
// Call it at the top of main in any binary used as a dispatch worker
// (cmd/fleet does): when the process was spawned by a dispatch
// supervisor it runs the assigned shard — building the campaign from
// the inherited spec, resuming into the shard store, streaming NDJSON
// progress on stdout, terminating gracefully on SIGINT/SIGTERM — and
// exits; otherwise it returns immediately and main proceeds normally.
func DispatchWorkerMain() {
	raw := os.Getenv(dispatchWorkerEnv)
	if raw == "" {
		return
	}
	os.Exit(dispatchWorker(raw, os.Stdout, os.Stderr))
}

// dispatchWorker runs one shard attempt; it is DispatchWorkerMain less
// the process concerns, returning the exit code.
func dispatchWorker(raw string, stdout, stderr *os.File) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dispatch worker:", err)
		return 1
	}
	var spec workerSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return fail(fmt.Errorf("decoding %s: %w", dispatchWorkerEnv, err))
	}

	// Progress protocol: one JSON object per line on stdout. Counts are
	// rebased over the sessions already durable in the shard store, so
	// a restarted worker reports "4/6", not "1/3" — progress of the
	// shard, not of the attempt.
	var (
		mu   sync.Mutex
		base int
		enc  = json.NewEncoder(stdout)
	)
	progress := func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		enc.Encode(dispatch.Message{Type: "progress", Shard: spec.Shard, Done: base + done, Total: base + total})
	}

	// The campaign starts from the decoded spec itself, validated by
	// the same code as a caller's options; the store and the shard
	// assignment go through their options for the checks those make.
	c, err := newCampaign(campaignOptions{
		campaignSpec: spec.campaignSpec,
		workers:      spec.Workers,
		noTelemetry:  spec.NoTelem,
		noTracing:    spec.NoTrace,
		onProgress:   progress,
	}, WithStore(spec.Store), WithResume(), WithShard(spec.Shard, spec.Of))
	if err != nil {
		return fail(err)
	}
	defer c.Close()

	// Telemetry and trace protocol: the worker streams registry
	// snapshots — and its tail-sampled notable traces — up the same
	// NDJSON channel so the supervisor's status listener can serve a
	// merged fleet view of engine/store observability it could never
	// observe from outside the process. Both are cumulative; the
	// supervisor keeps the latest per shard.
	var emits []func()
	if !spec.NoTelem {
		emits = append(emits, func() {
			snap := c.Telemetry()
			mu.Lock()
			defer mu.Unlock()
			enc.Encode(dispatch.Message{Type: "telemetry", Shard: spec.Shard, Snapshot: &snap})
		})
	}
	if !spec.NoTrace {
		emits = append(emits, func() {
			traces := c.Trace()
			if len(traces) == 0 {
				return
			}
			// Stamp the shard so the merged fleet view (and its Perfetto
			// process lanes) attributes each trace to its worker.
			for i := range traces {
				traces[i].Shard = spec.Shard
			}
			mu.Lock()
			defer mu.Unlock()
			enc.Encode(dispatch.Message{Type: "traces", Shard: spec.Shard, Traces: traces})
		})
	}
	if len(emits) > 0 {
		emitAll := func() {
			for _, emit := range emits {
				emit()
			}
		}
		stopTick := make(chan struct{})
		var tickWg sync.WaitGroup
		tickWg.Add(1)
		go func() {
			defer tickWg.Done()
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					emitAll()
				case <-stopTick:
					return
				}
			}
		}()
		// The final flush runs on every exit path, so even a shard that
		// finishes inside one tick reports its observability once.
		defer func() {
			close(stopTick)
			tickWg.Wait()
			emitAll()
		}()
	}

	st, err := c.Store()
	if err != nil {
		return fail(err)
	}
	base = st.Len()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, err := c.Run(ctx); err != nil {
		// Keep finished sessions durable for the supervisor's restart;
		// a sync failure means they may not have survived, which must
		// not pass silently as a clean crash.
		if serr := st.Sync(); serr != nil {
			fmt.Fprintln(stderr, "dispatch worker: store sync failed:", serr)
		}
		return fail(err)
	}
	return 0
}
