package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"veritas/internal/serve"
	"veritas/internal/store"
	"veritas/internal/tracing"
)

// liveInterval rate-limits the live tier's shard rediscovery and tail
// refresh.
const liveInterval = 250 * time.Millisecond

// Plane is the half of a dispatch both control planes share, built once
// per dispatch whether the local supervisor (Run) or the fleet
// dispatcher (package fleetd) runs its shards. It owns the pre-flight
// (NewPlane), the serialized event fan-out (Emit), the fold (Fold), and
// the GET surface with its Status view and live tier (Routes).
type Plane struct {
	cfg     Config
	dirs    []string
	stamped []int
	status  *Status
	live    *serve.Live
	emitMu  sync.Mutex
}

// NewPlane pre-flights a dispatch and builds its shared half: the shard
// count and directory are validated, the directory created, every shard
// store already in it checked against the layout (CheckLayout), and the
// fold destination judged by cfg.Fingerprints (store.CheckFoldTarget),
// so a dispatch that could never land fails before any shard runs.
func NewPlane(cfg Config) (*Plane, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("dispatch: shard count %d must be at least 1", cfg.Shards)
	}
	if cfg.Dir == "" {
		return nil, errors.New("dispatch: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	dirs := make([]string, cfg.Shards)
	for i := range dirs {
		dirs[i] = ShardDir(cfg.Dir, i)
	}
	stamped, err := CheckLayout(cfg.Dir, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.FoldInto != "" {
		// Fail fast on a fold destination that can never be replaced —
		// discovering that only after a multi-hour campaign would waste
		// the whole run.
		if err := store.CheckFoldTarget(cfg.FoldInto, dirs, cfg.Fingerprints); err != nil {
			return nil, err
		}
	}
	return &Plane{
		cfg:     cfg,
		dirs:    dirs,
		stamped: stamped,
		status:  NewStatus(cfg.Shards, cfg.Telemetry, cfg.Tracer),
		live:    serve.NewLive(cfg.Dir, serve.WithWatchInterval(liveInterval)),
	}, nil
}

// Config returns the configuration the plane was built from.
func (p *Plane) Config() Config { return p.cfg }

// ShardDirs returns the per-shard store directories, in shard order.
func (p *Plane) ShardDirs() []string { return append([]string(nil), p.dirs...) }

// Stamped returns the shards whose stores were already under Dir at
// pre-flight, as CheckLayout found them.
func (p *Plane) Stamped() []int { return p.stamped }

// Emit is the dispatch's one serialized path to its consumers: the
// Status view first, then the caller's OnEvent, which therefore needs
// no locking of its own.
func (p *Plane) Emit(e Event) {
	p.emitMu.Lock()
	defer p.emitMu.Unlock()
	p.status.Handle(e)
	if p.cfg.OnEvent != nil {
		p.cfg.OnEvent(e)
	}
}

// Fold folds the shard stores, in shard order, into FoldInto
// (store.Fold, under its replace rule) and announces it with an
// EventFold. It returns the folded session count; without a FoldInto
// it folds nothing and returns 0.
func (p *Plane) Fold() (int, error) {
	if p.cfg.FoldInto == "" {
		return 0, nil
	}
	n, err := store.Fold(p.cfg.FoldInto, store.Options{Tracer: p.cfg.Tracer}, p.dirs...)
	if err != nil {
		return 0, err
	}
	p.Emit(Event{Type: EventFold, Done: n})
	return n, nil
}

// SetAgentSource: see Status.SetAgentSource.
func (p *Plane) SetAgentSource(fn func() []AgentStatus) { p.status.SetAgentSource(fn) }

// WorkerTraces: see Status.WorkerTraces. The facade stashes these after
// a dispatch so Campaign.Trace keeps serving the fleet view.
func (p *Plane) WorkerTraces() [][]tracing.Trace { return p.status.WorkerTraces() }

// Routes returns a new mux holding the GET surface of a dispatch
// listener; a control plane may add routes of its own:
//
//	GET /v1/status  per-shard progress + merged telemetry, as JSON
//	GET /metrics    supervisor registry merged with every worker's
//	                latest snapshot, in Prometheus text format
//	GET /v1/trace   the fleet-wide "slowest sessions" view — supervisor
//	                traces merged with every worker's latest notable
//	                set — as Chrome trace-event JSON (Perfetto-loadable)
//	GET /healthz    liveness
//	GET /v1/live/*  the report family over the combined shard stores,
//	                while the dispatch runs
func (p *Plane) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		body, err := json.Marshal(p.status.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p.status.Snapshot().Telemetry.WritePrometheus(w)
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := tracing.WriteChrome(w, p.status.Traces()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// The live tier answers while the campaign runs; it never takes
	// over /v1/report, which stays "the folded corpus or 503" on the
	// fleet listener so that pollers can use it as the completion
	// signal.
	mux.Handle("GET /v1/live/", p.live)
	return mux
}

// Close releases the live tier's tailed shard stores.
func (p *Plane) Close() error { return p.live.Close() }
