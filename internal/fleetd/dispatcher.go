package fleetd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"veritas/internal/dispatch"
	"veritas/internal/serve"
	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// incomingDir is where uploads are received and verified before they
// are accepted, under Config.Dir. It holds no shard.json of its own, so
// shard discovery (store.DiscoverShards: adoption, the live tier,
// `fleet -fold`) never takes a staged upload for a shard store.
const incomingDir = ".incoming"

// Config parameterizes a fleet dispatcher.
type Config struct {
	// Shards is the campaign's shard count — the unit of leasing.
	Shards int
	// Dir is the parent directory accepted shard stores land under,
	// laid out exactly like a local dispatch (dispatch.ShardDir), so
	// FoldShards and `fleet -fold` work on it unchanged. Created if
	// missing. Verified shard stores already present are counted done
	// (a previous interrupted fleet run resumes).
	Dir string
	// FoldInto, when non-empty, is the store directory the shard
	// stores are folded into (store.Fold) once every shard's upload is
	// accepted.
	FoldInto string
	// Fingerprints are the acceptable campaign.json forms; uploads are
	// verified against them, and New's pre-flight judges FoldInto by
	// them exactly as a local dispatch does (store.CheckFoldTarget).
	Fingerprints [][]byte
	// Spec is the opaque worker spec template each lease carries to
	// its agent (the facade's workerSpec without shard assignment; the
	// agent fills shard/of/store and hands it to the worker process
	// via the environment). The dispatcher never interprets it.
	Spec json.RawMessage
	// LeaseTTL is the heartbeat deadline (default DefaultLeaseTTL). An
	// agent that goes LeaseTTL without renewing loses its shard.
	LeaseTTL time.Duration
	// MaxLease, when positive, is the hard straggler deadline: a lease
	// older than this is revoked even if its agent still heartbeats,
	// so one slow machine cannot hold the campaign's tail hostage.
	// Heartbeats renew the TTL, never the deadline.
	MaxLease time.Duration
	// MaxGrants caps leases per shard before the campaign fails
	// (default DefaultMaxGrants).
	MaxGrants int
	// OnEvent, when set, receives the dispatcher's serialized event
	// stream: lease grants, steals, relayed progress, accepted
	// uploads, the fold.
	OnEvent func(dispatch.Event)
	// Telemetry and Tracer observe the dispatcher itself; worker
	// telemetry and traces arriving in heartbeats are merged into the
	// same views with per-agent labels. Both may be nil.
	Telemetry *telemetry.Registry
	Tracer    *tracing.Tracer

	// now is the clock (tests); nil means time.Now.
	now func() time.Time
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL <= 0 {
		return DefaultLeaseTTL
	}
	return c.LeaseTTL
}

// Result summarizes a completed fleet dispatch.
type Result struct {
	// ShardDirs are the accepted per-shard store directories, in shard
	// order.
	ShardDirs []string
	// Steals counts lease revocations (work stealing) across shards.
	Steals int
	// Folded is the session count of the folded store (0 when folding
	// was disabled).
	Folded int
	// Agents are the IDs of every agent that registered, sorted.
	Agents []string
	// Elapsed is wall-clock time from New to fold completion.
	Elapsed time.Duration
}

// agentInfo is the dispatcher's registry row for one agent.
type agentInfo struct {
	lastSeen  time.Time
	completed int
	lost      bool // a lease it held was revoked, nothing seen since
	told      bool // answered "done": it will not ask again
}

// Dispatcher is the fleet control plane: the lease table, the agent
// registry, the upload acceptor, and the HTTP surface agents and
// operators talk to. Create with New, serve Handler, and Wait for the
// campaign to complete.
type Dispatcher struct {
	cfg    Config
	tab    *table
	status *dispatch.Status
	start  time.Time
	dirs   []string

	emitMu sync.Mutex

	mu     sync.Mutex
	agents map[string]*agentInfo
	seq    int

	// landing is held shared by an upload from the moment it wins its
	// slot in the lease table until its store is renamed into place, and
	// taken exclusively before the fold — so "every shard done" (which
	// wakes Wait) is never folded ahead of the last store's landing.
	landing sync.RWMutex

	// reportMu guards the post-fold serving state.
	reportMu sync.Mutex
	reportH  http.Handler
	folded   *store.Store

	// live serves /v1/live/* over the accepted (and still-uploading)
	// shard stores while the campaign runs — the incremental view;
	// /v1/report stays 503 until the fold, as always.
	live *serve.Live
}

// New builds a dispatcher: lays out (or adopts) the shard directory,
// runs a local dispatch's pre-flight, pre-accepts verified shard
// stores a previous run left, and arms the lease table.
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleetd: shard count %d must be at least 1", cfg.Shards)
	}
	if cfg.Dir == "" {
		return nil, errors.New("fleetd: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleetd: %w", err)
	}
	// An upload a previous run staged but never accepted is debris.
	if err := os.RemoveAll(filepath.Join(cfg.Dir, incomingDir)); err != nil {
		return nil, fmt.Errorf("fleetd: clearing staged uploads: %w", err)
	}
	dirs := make([]string, cfg.Shards)
	for i := range dirs {
		dirs[i] = dispatch.ShardDir(cfg.Dir, i)
	}
	stamped, err := dispatch.CheckLayout(cfg.Dir, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.FoldInto != "" {
		if err := store.CheckFoldTarget(cfg.FoldInto, dirs, cfg.Fingerprints); err != nil {
			return nil, err
		}
	}
	d := &Dispatcher{
		cfg:    cfg,
		tab:    newTable(cfg.Shards, cfg.LeaseTTL, cfg.MaxLease, cfg.MaxGrants, cfg.now),
		status: dispatch.NewStatus(cfg.Shards, cfg.Telemetry, cfg.Tracer),
		start:  time.Now(),
		dirs:   dirs,
		agents: make(map[string]*agentInfo),
		live:   serve.NewLive(cfg.Dir, serve.WithWatchInterval(250*time.Millisecond)),
	}
	d.status.SetAgentSource(d.agentRows)
	// Adopt shard stores a previous fleet run completed: anything that
	// verifies as shard i/n of this campaign is done work we must not
	// recompute — and anything that *doesn't* verify is refused now,
	// not at fold time.
	for _, i := range stamped {
		n, err := store.VerifyShard(dirs[i], i, cfg.Shards, cfg.Fingerprints)
		if err != nil {
			return nil, fmt.Errorf("fleetd: adopting previous shard store: %w", err)
		}
		d.tab.markDone(i)
		d.emit(dispatch.Event{Type: dispatch.EventUpload, Shard: i, Done: n})
	}
	return d, nil
}

// emit serializes the event stream into the status tracker and the
// caller's OnEvent.
func (d *Dispatcher) emit(e dispatch.Event) {
	d.emitMu.Lock()
	defer d.emitMu.Unlock()
	d.status.Handle(e)
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(e)
	}
}

// touch updates an agent's last-seen time.
func (d *Dispatcher) touch(agent string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if a, ok := d.agents[agent]; ok {
		a.lastSeen = time.Now()
		a.lost = false
	}
}

// agentRows renders the registry for /v1/status.
func (d *Dispatcher) agentRows() []dispatch.AgentStatus {
	d.mu.Lock()
	names := make([]string, 0, len(d.agents))
	for name := range d.agents {
		names = append(names, name)
	}
	sort.Strings(names)
	now := time.Now()
	rows := make([]dispatch.AgentStatus, 0, len(names))
	for _, name := range names {
		a := d.agents[name]
		row := dispatch.AgentStatus{
			Agent:           name,
			Completed:       a.completed,
			LastSeenSeconds: now.Sub(a.lastSeen).Seconds(),
		}
		switch {
		case a.lost:
			row.State = "lost"
		default:
			row.State = "idle"
		}
		rows = append(rows, row)
	}
	d.mu.Unlock()
	for i := range rows {
		if shards := d.tab.holderOf(rows[i].Agent); len(shards) > 0 {
			rows[i].Shards = shards
			if rows[i].State == "idle" {
				rows[i].State = "alive"
			}
		}
	}
	return rows
}

// markLost flags the agent a steal was taken from.
func (d *Dispatcher) markLost(agent string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if a, ok := d.agents[agent]; ok {
		a.lost = true
	}
}

// Sweep revokes expired leases, emitting a steal event per revocation.
// Wait runs it on a timer; the lease handler runs it before granting,
// so a single surviving agent steals promptly even between ticks.
func (d *Dispatcher) Sweep() {
	for _, s := range d.tab.sweep() {
		d.markLost(s.agent)
		d.emit(dispatch.Event{
			Type: dispatch.EventSteal, Shard: s.shard, Agent: s.agent, Epoch: s.epoch,
			Err: errors.New(s.reason),
		})
	}
}

// Wait blocks until the campaign completes (every shard's store
// accepted), then folds and returns the result; or until ctx is
// cancelled or the lease table turns fatal. It owns the sweep timer.
func (d *Dispatcher) Wait(ctx context.Context) (*Result, error) {
	interval := d.cfg.leaseTTL() / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-d.tab.completeCh:
			if err := d.tab.err(); err != nil {
				return nil, err
			}
			return d.finish()
		case <-tick.C:
			d.Sweep()
		}
	}
}

// finish folds the accepted shard stores and arms the report handler.
func (d *Dispatcher) finish() (*Result, error) {
	res := &Result{
		ShardDirs: append([]string(nil), d.dirs...),
		Steals:    d.tab.stealCount(),
	}
	d.mu.Lock()
	for name := range d.agents {
		res.Agents = append(res.Agents, name)
	}
	d.mu.Unlock()
	sort.Strings(res.Agents)
	if d.cfg.FoldInto != "" {
		d.landing.Lock() // wait out an accepted store still being moved into place
		d.landing.Unlock()
		n, err := store.Fold(d.cfg.FoldInto, store.Options{Tracer: d.cfg.Tracer}, d.dirs...)
		if err != nil {
			return nil, err
		}
		res.Folded = n
		d.emit(dispatch.Event{Type: dispatch.EventFold, Done: n})
		// Serve the folded corpus from the fleet port: /v1/report (and
		// the rest of the store query surface) answers 503 until the
		// fold, then byte-identically to any other serving of this
		// campaign.
		st, err := store.Open(d.cfg.FoldInto, store.Options{ReadOnly: true})
		if err != nil {
			return nil, err
		}
		h := serve.New(st, serve.WithTelemetry(d.cfg.Telemetry), serve.WithTracer(d.cfg.Tracer))
		d.reportMu.Lock()
		d.folded, d.reportH = st, h
		d.reportMu.Unlock()
	}
	res.Elapsed = time.Since(d.start)
	return res, nil
}

// Drain keeps a completed campaign's "done" answer reachable for the
// agents still polling for work. It returns once every agent that may
// ask again has been told "done", after twice the lease TTL (at least
// a second), or when ctx ends. An agent that lost a lease to stealing
// and was not seen since, or went a whole TTL unseen, is not waited
// for: a live idle agent polls every TTL/2. Call it between Wait and
// closing the listener — closing right after Wait races the last
// uploader's next lease request, and that agent would find the
// dispatcher gone instead of the campaign done.
func (d *Dispatcher) Drain(ctx context.Context) {
	ttl := d.cfg.leaseTTL()
	bound := time.NewTimer(max(2*ttl, time.Second))
	defer bound.Stop()
	now := time.Now()
	d.mu.Lock()
	var waitFor []*agentInfo
	for _, a := range d.agents {
		if !a.lost && now.Sub(a.lastSeen) <= ttl {
			waitFor = append(waitFor, a)
		}
	}
	d.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		d.mu.Lock()
		pending := slices.ContainsFunc(waitFor, func(a *agentInfo) bool { return !a.told })
		d.mu.Unlock()
		if !pending {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-bound.C:
			return
		case <-tick.C:
		}
	}
}

// Close releases the folded store handle, if serving began, and the
// live tier's tailed shard stores.
func (d *Dispatcher) Close() error {
	liveErr := d.live.Close()
	d.reportMu.Lock()
	defer d.reportMu.Unlock()
	if d.folded != nil {
		err := d.folded.Close()
		d.folded, d.reportH = nil, nil
		if err != nil {
			return err
		}
	}
	return liveErr
}

// WorkerTraces exposes the status tracker's per-shard streamed trace
// sets (the facade stashes them after the dispatch).
func (d *Dispatcher) WorkerTraces() [][]tracing.Trace {
	return d.status.WorkerTraces()
}

// Handler serves the fleet control plane:
//
//	POST /v1/agents     agent registration
//	POST /v1/lease      lease requests
//	POST /v1/heartbeat  lease renewal + progress/telemetry/trace relay
//	POST /v1/release    agent-initiated lease return
//	POST /v1/upload     shipped shard store acceptance
//	GET  /v1/status     shard + agent rows, merged telemetry (JSON)
//	GET  /metrics       merged fleet registry, per-agent labels
//	GET  /v1/trace      merged fleet traces (Chrome trace-event JSON)
//	GET  /healthz       liveness
//	GET  /v1/live/...   incremental aggregates over the shard stores
//	GET  /v1/report     503 until the fold; then the folded corpus
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/agents", d.handleRegister)
	mux.HandleFunc("POST /v1/lease", d.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", d.handleHeartbeat)
	mux.HandleFunc("POST /v1/release", d.handleRelease)
	mux.HandleFunc("POST /v1/upload", d.handleUpload)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	statusH := d.status.Handler()
	mux.Handle("GET /v1/status", statusH)
	mux.Handle("GET /metrics", statusH)
	mux.Handle("GET /v1/trace", statusH)
	// The live tier answers while the campaign runs; it never takes
	// over /v1/report, which stays "the folded corpus or 503" so that
	// pollers can use it as the completion signal.
	mux.Handle("GET /v1/live/", d.live)
	// Everything else — /v1/report, /v1/sessions, /v1/scenarios — is
	// the folded corpus, available once the fold completed.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		d.reportMu.Lock()
		h := d.reportH
		d.reportMu.Unlock()
		if h == nil {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "campaign incomplete: the folded corpus is not served yet", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func writeLeaseError(w http.ResponseWriter, err error) {
	code := http.StatusConflict
	if errors.Is(err, ErrShardDone) {
		code = http.StatusGone
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// maxControlBody caps a JSON control body (register, lease, heartbeat,
// release). A heartbeat is the large one: it relays the worker's whole
// telemetry snapshot and its retained trace set, a few hundred
// kilobytes on a busy shard. The upload stream is not a control body;
// store.Receive bounds it per file and by file count.
const maxControlBody = 8 << 20

// decodeControl reads one capped JSON control body into v. On failure
// it has already answered — 413 when the body ran over the cap, 400
// when it is not the expected JSON — and returns false.
func decodeControl(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
	return false
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeControl(w, r, &req) {
		return
	}
	d.mu.Lock()
	d.seq++
	id := req.Name
	if id == "" {
		id = fmt.Sprintf("agent-%d", d.seq)
	}
	if _, taken := d.agents[id]; taken {
		id = fmt.Sprintf("%s-%d", id, d.seq)
	}
	d.agents[id] = &agentInfo{lastSeen: time.Now()}
	d.mu.Unlock()
	ttl := d.cfg.leaseTTL()
	writeJSON(w, http.StatusOK, registerResponse{
		Agent:       id,
		Shards:      d.cfg.Shards,
		LeaseTTLMs:  ttl.Milliseconds(),
		HeartbeatMs: (ttl / 3).Milliseconds(),
	})
}

func (d *Dispatcher) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeControl(w, r, &req) {
		return
	}
	if req.Agent == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "lease request needs an agent id"})
		return
	}
	d.touch(req.Agent)
	// Sweep before granting: a dead agent's expired lease becomes this
	// agent's work right now, not at the next timer tick.
	d.Sweep()
	if err := d.tab.err(); err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	if d.tab.isComplete() {
		d.tellDone(w, req.Agent)
		return
	}
	shard, epoch, ok := d.tab.acquire(req.Agent)
	if !ok {
		if err := d.tab.err(); err != nil {
			writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
			return
		}
		if d.tab.isComplete() {
			d.tellDone(w, req.Agent)
			return
		}
		retry := d.cfg.leaseTTL() / 2
		if retry < 50*time.Millisecond {
			retry = 50 * time.Millisecond
		}
		writeJSON(w, http.StatusOK, leaseResponse{Status: "wait", RetryMs: retry.Milliseconds()})
		return
	}
	d.emit(dispatch.Event{Type: dispatch.EventLease, Shard: shard, Agent: req.Agent, Epoch: epoch})
	writeJSON(w, http.StatusOK, leaseResponse{
		Status: "lease",
		Shard:  shard,
		Of:     d.cfg.Shards,
		Epoch:  epoch,
		TTLMs:  d.cfg.leaseTTL().Milliseconds(),
		Spec:   d.cfg.Spec,
	})
}

// tellDone answers a lease request with "done" and records that the
// agent heard it (Drain waits for that). The answer is flushed first,
// so a listener closed the moment Drain returns cannot cut it off.
func (d *Dispatcher) tellDone(w http.ResponseWriter, agent string) {
	writeJSON(w, http.StatusOK, leaseResponse{Status: "done"})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	d.mu.Lock()
	if a, ok := d.agents[agent]; ok {
		a.told = true
	}
	d.mu.Unlock()
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeControl(w, r, &req) {
		return
	}
	d.touch(req.Agent)
	if err := d.tab.heartbeat(req.Shard, req.Agent, req.Epoch); err != nil {
		writeLeaseError(w, err)
		return
	}
	// Relay the worker's observability into the fleet view with agent
	// provenance: progress as-is, telemetry relabeled per agent so
	// identical series from different machines stay distinct, traces
	// stamped with shard and agent.
	if req.Total > 0 || req.Done > 0 {
		d.emit(dispatch.Event{
			Type: dispatch.EventProgress, Shard: req.Shard, Agent: req.Agent, Epoch: req.Epoch,
			Done: req.Done, Total: req.Total,
		})
	}
	if req.Snapshot != nil {
		snap := req.Snapshot.Relabel("agent", req.Agent)
		d.emit(dispatch.Event{
			Type: dispatch.EventTelemetry, Shard: req.Shard, Agent: req.Agent, Epoch: req.Epoch,
			Telemetry: &snap,
		})
	}
	if len(req.Traces) > 0 {
		traces := append([]tracing.Trace(nil), req.Traces...)
		for i := range traces {
			traces[i].Shard = req.Shard
			traces[i].Agent = req.Agent
		}
		d.emit(dispatch.Event{
			Type: dispatch.EventTraces, Shard: req.Shard, Agent: req.Agent, Epoch: req.Epoch,
			Traces: traces,
		})
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (d *Dispatcher) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !decodeControl(w, r, &req) {
		return
	}
	d.touch(req.Agent)
	if err := d.tab.release(req.Shard, req.Agent, req.Epoch); err != nil {
		writeLeaseError(w, err)
		return
	}
	d.emit(dispatch.Event{
		Type: dispatch.EventExit, Shard: req.Shard, Agent: req.Agent, Epoch: req.Epoch,
		Err: fmt.Errorf("released by agent: %s", req.Error),
	})
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleUpload accepts a shipped shard store: fence, receive into a
// lease-scoped staging directory under Dir/.incoming, verify (file CRCs
// at receive; shard assignment, campaign fingerprint and every segment
// frame in VerifyShard — a shipped store carries no sidecar that could
// stand in for the walk), then re-fence and move into the fold set. The
// second fence closes the verification window: a lease that expired
// mid-upload loses, its staging directory is discarded, and the
// re-leased agent's upload is the one accepted.
func (d *Dispatcher) handleUpload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	agent := q.Get("agent")
	shard, err1 := strconv.Atoi(q.Get("shard"))
	epoch, err2 := strconv.Atoi(q.Get("epoch"))
	if agent == "" || err1 != nil || err2 != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "upload needs agent, shard and epoch"})
		return
	}
	d.touch(agent)
	// Cheap pre-check before streaming megabytes from a ghost.
	if err := d.tab.heartbeat(shard, agent, epoch); err != nil {
		writeLeaseError(w, err)
		return
	}
	staging := filepath.Join(d.cfg.Dir, incomingDir, fmt.Sprintf("shard-%d-e%d", shard, epoch))
	if err := os.RemoveAll(staging); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if _, err := store.Receive(r.Body, staging); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	sessions, err := store.VerifyShard(staging, shard, d.cfg.Shards, d.cfg.Fingerprints)
	if err != nil {
		os.RemoveAll(staging)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// The store is proven; now win (or lose) the race for the slot.
	d.landing.RLock()
	defer d.landing.RUnlock()
	if err := d.tab.complete(shard, agent, epoch); err != nil {
		os.RemoveAll(staging)
		writeLeaseError(w, err)
		return
	}
	dst := d.dirs[shard]
	if err := os.RemoveAll(dst); err == nil {
		err = os.Rename(staging, dst)
	}
	if err != nil {
		// The table says done but the disk move failed: unrecoverable
		// for this campaign — fail loudly rather than fold a hole.
		d.tab.fail(fmt.Errorf("fleetd: accepting shard %d: %w", shard, err))
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	d.mu.Lock()
	if a, ok := d.agents[agent]; ok {
		a.completed++
	}
	d.mu.Unlock()
	d.emit(dispatch.Event{Type: dispatch.EventUpload, Shard: shard, Agent: agent, Epoch: epoch, Done: sessions})
	writeJSON(w, http.StatusOK, uploadResponse{Sessions: sessions})
}
