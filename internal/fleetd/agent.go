package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"veritas/internal/dispatch"
	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// ErrDispatcherGone reports an agent that lost its dispatcher: the
// campaign may have completed and torn the listener down, or the
// network died. Either way there is no more work to get here.
var ErrDispatcherGone = errors.New("fleetd: dispatcher unreachable")

// AgentConfig parameterizes one fleet agent.
type AgentConfig struct {
	// Dispatcher is the dispatcher's base URL ("http://host:port";
	// a bare "host:port" gets "http://" prepended).
	Dispatcher string
	// Name is the agent's requested id; the dispatcher may suffix it
	// for uniqueness. Empty means dispatcher-assigned.
	Name string
	// Dir is the parent directory the agent's local shard stores live
	// under, laid out like a dispatch directory so a re-leased shard
	// resumes from whatever this agent already computed for it.
	Dir string
	// Command builds the worker process for one leased shard: spec is
	// the lease's opaque worker spec template, and the command must
	// run shard/of resuming into storeDir (the veritas facade wires
	// this to the VERITAS_DISPATCH_WORKER re-exec machinery). The
	// worker's stdout/stderr are owned by the agent. Required.
	Command func(spec json.RawMessage, shard, of int, storeDir string) (*exec.Cmd, error)
	// MaxRestarts is the local crash-restart budget per lease, taken
	// as given like dispatch.Workers.MaxRestarts: zero disables restarts
	// and a negative budget is refused. When the budget is exhausted
	// the agent releases the lease back to the dispatcher.
	MaxRestarts int
	// OnEvent, when set, receives the agent's local worker lifecycle
	// events (starts, progress, lines, exits, restarts), serialized.
	OnEvent func(dispatch.Event)
	// Logf, when set, receives one line per agent-level decision:
	// registration, leases, steals observed, uploads, releases.
	Logf func(format string, args ...any)
}

// AgentResult summarizes an agent's run.
type AgentResult struct {
	// Agent is the dispatcher-assigned id.
	Agent string
	// Leases counts shards leased to this agent; Completed counts
	// uploads accepted; Lost counts leases revoked under us (observed
	// as a 409/410 on heartbeat or upload); Released counts leases
	// returned after local failure; Restarts counts local worker
	// crash-restarts.
	Leases, Completed, Lost, Released, Restarts int
}

// Agent runs the lease-work-upload loop against a dispatcher.
type Agent struct {
	cfg    AgentConfig
	client *http.Client
	base   string
	id     string
	ttl    time.Duration
	hbEach time.Duration
	res    AgentResult
}

// RunAgent registers with the dispatcher and works leases until the
// campaign completes ("done"), ctx is cancelled, or the dispatcher
// disappears (ErrDispatcherGone). The returned result is non-nil
// whenever registration succeeded, even alongside an error.
func RunAgent(ctx context.Context, cfg AgentConfig) (*AgentResult, error) {
	if cfg.Dispatcher == "" {
		return nil, errors.New("fleetd: AgentConfig.Dispatcher is required")
	}
	if cfg.Dir == "" {
		return nil, errors.New("fleetd: AgentConfig.Dir is required")
	}
	if cfg.Command == nil {
		return nil, errors.New("fleetd: AgentConfig.Command is required")
	}
	if cfg.MaxRestarts < 0 {
		return nil, fmt.Errorf("fleetd: restart budget %d is negative (0 disables restarts)", cfg.MaxRestarts)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleetd: %w", err)
	}
	base := cfg.Dispatcher
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	// Every control call is bounded; only the upload, which streams an
	// arbitrary-size store, runs without a whole-request timeout.
	a := &Agent{cfg: cfg, client: &http.Client{Timeout: 30 * time.Second}, base: base}
	if err := a.register(ctx); err != nil {
		return nil, err
	}
	err := a.loop(ctx)
	return &a.res, err
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// post sends a JSON request and decodes the JSON response; codes not
// in accept become errors carrying the server's error body.
func (a *Agent) post(ctx context.Context, path string, req, resp any, accept ...int) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	res, err := a.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(res.Body, 16<<20))
	if err != nil {
		return res.StatusCode, err
	}
	for _, code := range accept {
		if res.StatusCode == code {
			if resp != nil {
				if err := json.Unmarshal(raw, resp); err != nil {
					return res.StatusCode, fmt.Errorf("fleetd: decoding %s response: %w", path, err)
				}
			}
			return res.StatusCode, nil
		}
	}
	var eresp errorResponse
	if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
		return res.StatusCode, fmt.Errorf("fleetd: %s: %s (HTTP %d)", path, eresp.Error, res.StatusCode)
	}
	return res.StatusCode, fmt.Errorf("fleetd: %s: HTTP %d", path, res.StatusCode)
}

// register joins the dispatcher, retrying while it comes up (agents
// are routinely started before or alongside their dispatcher).
func (a *Agent) register(ctx context.Context) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		var resp registerResponse
		_, err := a.post(ctx, "/v1/agents", registerRequest{Name: a.cfg.Name}, &resp, http.StatusOK)
		if err == nil {
			a.id = resp.Agent
			a.res.Agent = resp.Agent
			a.ttl = time.Duration(resp.LeaseTTLMs) * time.Millisecond
			a.hbEach = time.Duration(resp.HeartbeatMs) * time.Millisecond
			if a.hbEach <= 0 {
				a.hbEach = a.ttl / 3
			}
			if a.hbEach <= 0 {
				a.hbEach = time.Second
			}
			a.logf("registered as %s (lease TTL %v)", a.id, a.ttl)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: registration failed: %v", ErrDispatcherGone, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// loop is the agent's life: lease, work, upload, repeat.
func (a *Agent) loop(ctx context.Context) error {
	misses := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp leaseResponse
		code, err := a.post(ctx, "/v1/lease", leaseRequest{Agent: a.id}, &resp, http.StatusOK)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
				// The address answers HTTP but no longer speaks the
				// fleet protocol: the dispatcher folded and rebound its
				// port to plain corpus serving. The campaign is over.
				return fmt.Errorf("%w: %v", ErrDispatcherGone, err)
			}
			if code != 0 {
				// The dispatcher answered with an error: the campaign
				// failed (lease budget exhausted) or we are unknown.
				return err
			}
			if misses++; misses >= 10 {
				return fmt.Errorf("%w: %v", ErrDispatcherGone, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(300 * time.Millisecond):
			}
			continue
		}
		misses = 0
		switch resp.Status {
		case "done":
			a.logf("campaign complete; exiting")
			return nil
		case "wait":
			retry := time.Duration(resp.RetryMs) * time.Millisecond
			if retry <= 0 {
				retry = 500 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retry):
			}
		case "lease":
			a.res.Leases++
			a.workLease(ctx, resp)
		default:
			return fmt.Errorf("fleetd: unknown lease response status %q", resp.Status)
		}
	}
}

// leaseProgress accumulates the worker's latest streamed state under a
// lock the heartbeat sender shares with the event relay.
type leaseProgress struct {
	mu     sync.Mutex
	done   int
	total  int
	snap   *telemetry.Snapshot
	traces []tracing.Trace
}

// workLease runs one leased shard to its conclusion: worker success →
// upload; local failure → release; lease lost (heartbeat fencing) →
// kill the worker and move on. Failures never kill the agent — the
// dispatcher owns campaign-level policy.
func (a *Agent) workLease(ctx context.Context, l leaseResponse) {
	storeDir := dispatch.ShardDir(a.cfg.Dir, l.Shard)
	a.logf("leased shard %d/%d (epoch %d) -> %s", l.Shard, l.Of, l.Epoch, storeDir)

	var prog leaseProgress
	workCtx, cancelWork := context.WithCancel(ctx)
	defer cancelWork()
	var leaseLost bool
	var lostMu sync.Mutex
	markLost := func() {
		lostMu.Lock()
		if !leaseLost {
			leaseLost = true
			a.res.Lost++
		}
		lostMu.Unlock()
		cancelWork()
	}
	isLost := func() bool {
		lostMu.Lock()
		defer lostMu.Unlock()
		return leaseLost
	}

	// Heartbeats: renew the lease and relay the worker's cumulative
	// observability. A fencing response (409/410) means the shard was
	// stolen or already completed — stop the worker, it computes for
	// nobody. Repeated transport errors mean the dispatcher is gone;
	// stop too (the worker's store persists for a future lease).
	beat := func(beatCtx context.Context) (int, error) {
		prog.mu.Lock()
		req := heartbeatRequest{
			Agent: a.id, Shard: l.Shard, Epoch: l.Epoch,
			Done: prog.done, Total: prog.total,
			Snapshot: prog.snap, Traces: prog.traces,
		}
		prog.mu.Unlock()
		return a.post(beatCtx, "/v1/heartbeat", req, nil, http.StatusOK)
	}
	hbDone := make(chan struct{})
	var hbWg sync.WaitGroup
	hbWg.Add(1)
	go func() {
		defer hbWg.Done()
		tick := time.NewTicker(a.hbEach)
		defer tick.Stop()
		errs := 0
		for {
			select {
			case <-hbDone:
				return
			case <-workCtx.Done():
				return
			case <-tick.C:
				code, err := beat(workCtx)
				switch {
				case err == nil:
					errs = 0
				case code == http.StatusConflict || code == http.StatusGone:
					a.logf("shard %d lease lost (%v); stopping its worker", l.Shard, err)
					markLost()
					return
				default:
					if errs++; errs >= 5 {
						a.logf("dispatcher unreachable mid-lease (%v); stopping shard %d", err, l.Shard)
						cancelWork()
						return
					}
				}
			}
		}
	}()

	// The worker itself: the exact machinery of a local dispatch, for
	// one shard, with the worker kept in our process group so the
	// whole agent tree dies together (work stealing handles the rest).
	wk := dispatch.Workers{
		MaxRestarts:      a.cfg.MaxRestarts,
		KeepProcessGroup: true,
		Command: func(w dispatch.Worker) (*exec.Cmd, error) {
			return a.cfg.Command(l.Spec, w.Shard, w.Shards, w.StoreDir)
		},
	}
	onEvent := func(e dispatch.Event) {
		e.Agent = a.id
		e.Epoch = l.Epoch
		switch e.Type {
		case dispatch.EventProgress:
			prog.mu.Lock()
			prog.done, prog.total = e.Done, e.Total
			prog.mu.Unlock()
		case dispatch.EventTelemetry:
			prog.mu.Lock()
			prog.snap = e.Telemetry
			prog.mu.Unlock()
		case dispatch.EventTraces:
			prog.mu.Lock()
			prog.traces = e.Traces
			prog.mu.Unlock()
		}
		if a.cfg.OnEvent != nil {
			a.cfg.OnEvent(e)
		}
	}
	restarts, err := dispatch.RunShard(workCtx, wk, l.Shard, l.Of, storeDir, onEvent)
	a.res.Restarts += restarts
	close(hbDone)
	hbWg.Wait()

	if isLost() {
		return
	}
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		// Local failure: hand the shard back so it re-queues now
		// instead of after the TTL. Best-effort — if the release
		// fails, expiry reclaims it.
		a.res.Released++
		a.logf("shard %d failed locally (%v); releasing the lease", l.Shard, err)
		a.post(ctx, "/v1/release", releaseRequest{
			Agent: a.id, Shard: l.Shard, Epoch: l.Epoch, Error: err.Error(),
		}, nil, http.StatusOK)
		return
	}

	// Success: one final synchronous heartbeat flushes the worker's
	// exit-time telemetry and traces (the ticker may not have fired
	// since), then the store ships. Fencing on either step means the
	// shard was stolen while we finished — the dispatcher's pick wins.
	if code, err := beat(ctx); err != nil {
		if code == http.StatusConflict || code == http.StatusGone {
			a.logf("shard %d was stolen before upload (%v)", l.Shard, err)
			markLost()
			return
		}
		// Transport trouble; still attempt the upload.
	}
	if err := a.upload(ctx, l, storeDir); err != nil {
		a.logf("shard %d upload rejected: %v", l.Shard, err)
		markLost()
		return
	}
	a.res.Completed++
	a.logf("shard %d uploaded and accepted", l.Shard)
}

// upload ships the completed shard store.
func (a *Agent) upload(ctx context.Context, l leaseResponse, dir string) error {
	pr, pw := io.Pipe()
	go func() {
		_, err := store.Ship(pw, dir)
		pw.CloseWithError(err)
	}()
	q := url.Values{}
	q.Set("agent", a.id)
	q.Set("shard", strconv.Itoa(l.Shard))
	q.Set("epoch", strconv.Itoa(l.Epoch))
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, a.base+"/v1/upload?"+q.Encode(), pr)
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/octet-stream")
	// Uploads stream an arbitrary-size store; the control client's
	// whole-request timeout would sever large ones.
	res, err := http.DefaultClient.Do(hr)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if res.StatusCode != http.StatusOK {
		var eresp errorResponse
		if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
			return fmt.Errorf("fleetd: upload: %s (HTTP %d)", eresp.Error, res.StatusCode)
		}
		return fmt.Errorf("fleetd: upload: HTTP %d", res.StatusCode)
	}
	return nil
}
