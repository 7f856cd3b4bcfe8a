package dispatch

import (
	"fmt"
	"sync"
	"time"

	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// Status folds the supervisor's event stream into a queryable fleet
// view: per-shard progress, restart and exit accounting, and the latest
// telemetry snapshot each worker streamed up the protocol. A Plane
// feeds it every Event (Plane.Emit) and serves its Snapshot and Traces
// on the dispatch listener (Plane.Routes).
//
// The merged /metrics view is what makes a dispatched campaign
// observable from one scrape target: engine stage histograms and store
// counters recorded *inside* the worker processes are summed across
// shards and exposed next to the supervisor's own shard gauges.
type Status struct {
	mu     sync.Mutex
	start  time.Time
	shards []ShardStatus
	snaps  []telemetry.Snapshot
	// traces[i] is shard i's latest streamed notable-trace set. Sets are
	// cumulative (a worker's whole tail sample each time), so keeping
	// only the latest per shard and merging at query time cannot
	// double-count a re-streamed trace.
	traces [][]tracing.Trace
	total  int // restarts across all shards
	steals int // lease revocations across all shards
	folded int
	// agents, when set, supplies the fleet agent rows at snapshot time
	// (the fleetd dispatcher's lease table knows liveness; the event
	// stream alone does not).
	agents func() []AgentStatus

	reg *telemetry.Registry
	trc *tracing.Tracer
	// per-shard handles (nil without a registry; nil metrics no-op)
	gDone, gTotal, gBackoff []*telemetry.Gauge
	cRestarts               *telemetry.Counter
}

// ShardStatus is one shard's slot in the fleet view.
type ShardStatus struct {
	Shard int `json:"shard"`
	// State is "pending" (never started), "running", "backoff"
	// (crashed, awaiting relaunch), "done", or "crashed" (exited
	// non-zero; babysit decides between backoff and permanent failure).
	// Fleet dispatches add "leased" (handed to an agent, no progress
	// yet) and "stolen" (the lease was revoked and the shard is back in
	// the pending queue awaiting another agent).
	State string `json:"state"`
	PID   int    `json:"pid,omitempty"`
	// Attempt is 1-based (the protocol's Worker.Attempt is 0-based),
	// matching the supervisor's "worker started (attempt N)" log lines.
	Attempt  int `json:"attempt"`
	Done     int `json:"done"`
	Total    int `json:"total"`
	Restarts int `json:"restarts"`
	// LastError is the most recent exit error (crashed workers).
	LastError string `json:"lastError,omitempty"`
	// Agent and Epoch identify the current (or last) lease holder in a
	// fleet dispatch; both zero for local dispatches.
	Agent string `json:"agent,omitempty"`
	Epoch int    `json:"epoch,omitempty"`
	// Steals counts how many times this shard's lease was revoked and
	// re-queued (missed heartbeats or straggler deadline).
	Steals int `json:"steals,omitempty"`
}

// AgentStatus is one fleet agent's row in the status view, supplied by
// the fleetd dispatcher's lease table via SetAgentSource.
type AgentStatus struct {
	Agent string `json:"agent"`
	// State is "alive" (heartbeating), "idle" (registered, no lease),
	// or "lost" (missed enough heartbeats that a lease was revoked).
	State string `json:"state"`
	// Shards are the shard indexes the agent currently holds leases on.
	Shards []int `json:"shards,omitempty"`
	// Completed counts shard stores this agent uploaded and had
	// accepted.
	Completed int `json:"completed"`
	// LastSeenSeconds is how long ago the agent last registered,
	// requested a lease, heartbeated, or uploaded.
	LastSeenSeconds float64 `json:"lastSeenSeconds"`
}

// StatusSnapshot is a point-in-time capture of the fleet view.
type StatusSnapshot struct {
	Shards []ShardStatus `json:"shards"`
	// Agents are the fleet agent rows (networked dispatches only; local
	// dispatches have no agents).
	Agents   []AgentStatus `json:"agents,omitempty"`
	Done     int           `json:"done"`
	Total    int           `json:"total"`
	Restarts int           `json:"restarts"`
	// Steals counts lease revocations across all shards (fleet
	// dispatches; the work-stealing analogue of Restarts).
	Steals int `json:"steals,omitempty"`
	Folded int `json:"folded,omitempty"`
	// ElapsedSeconds is wall-clock time since the tracker was built
	// (NewPlane builds it).
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// Telemetry is the merged fleet registry: the supervisor's own
	// metrics summed with every shard's latest worker snapshot.
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// NewStatus builds a tracker for a dispatch of the given shard count.
// reg, which may be nil, is the supervisor-side registry: the tracker
// maintains per-shard progress gauges and a restart counter in it, and
// merges it with worker snapshots when serving. trc, which may also be
// nil, is the supervisor-side tracer; /v1/trace serves it merged with
// the workers' streamed trace sets.
func NewStatus(shards int, reg *telemetry.Registry, trc *tracing.Tracer) *Status {
	st := &Status{
		start:  time.Now(),
		shards: make([]ShardStatus, shards),
		snaps:  make([]telemetry.Snapshot, shards),
		traces: make([][]tracing.Trace, shards),
		reg:    reg,
		trc:    trc,
	}
	for i := range st.shards {
		st.shards[i] = ShardStatus{Shard: i, State: "pending"}
	}
	if reg != nil {
		st.gDone = make([]*telemetry.Gauge, shards)
		st.gTotal = make([]*telemetry.Gauge, shards)
		st.gBackoff = make([]*telemetry.Gauge, shards)
		for i := 0; i < shards; i++ {
			st.gDone[i] = reg.Gauge(fmt.Sprintf("veritas_dispatch_shard_sessions_done{shard=%q}", fmt.Sprint(i)))
			st.gTotal[i] = reg.Gauge(fmt.Sprintf("veritas_dispatch_shard_sessions{shard=%q}", fmt.Sprint(i)))
			st.gBackoff[i] = reg.Gauge(fmt.Sprintf("veritas_dispatch_shard_backoff{shard=%q}", fmt.Sprint(i)))
		}
		st.cRestarts = reg.Counter("veritas_dispatch_restarts_total")
	}
	return st
}

// Handle folds one supervisor event into the view. Plane.Emit
// serializes its calls, so Handle contends only with snapshot readers.
func (st *Status) Handle(e Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.Type == EventFold {
		st.folded = e.Done
		return
	}
	if e.Shard < 0 || e.Shard >= len(st.shards) {
		return
	}
	s := &st.shards[e.Shard]
	if e.Agent != "" {
		s.Agent = e.Agent
	}
	if e.Epoch > 0 {
		s.Epoch = e.Epoch
	}
	switch e.Type {
	case EventStart:
		s.State = "running"
		s.PID = e.PID
		s.Attempt = e.Attempt + 1
		st.backoffGauge(e.Shard, 0)
	case EventProgress:
		s.State = "running"
		s.Done, s.Total = e.Done, e.Total
		if st.gDone != nil {
			st.gDone[e.Shard].Set(float64(e.Done))
			st.gTotal[e.Shard].Set(float64(e.Total))
		}
	case EventLease:
		s.State = "leased"
		s.LastError = ""
	case EventSteal:
		s.State = "stolen"
		s.Steals++
		st.steals++
		if e.Err != nil {
			s.LastError = e.Err.Error()
		}
		if st.reg != nil {
			st.reg.Counter("veritas_fleet_steals_total").Inc()
		}
	case EventUpload:
		s.State = "done"
		s.Done = e.Done
		if s.Total < e.Done {
			s.Total = e.Done
		}
		s.LastError = ""
		if st.gDone != nil {
			st.gDone[e.Shard].Set(float64(e.Done))
		}
	case EventExit:
		if e.Err == nil {
			s.State = "done"
			s.LastError = ""
		} else {
			s.State = "crashed"
			s.LastError = e.Err.Error()
		}
		st.exitCounter(e.Shard, e.Err == nil)
	case EventRestart:
		s.State = "backoff"
		s.Restarts++
		st.total++
		st.cRestarts.Inc()
		st.backoffGauge(e.Shard, e.Delay.Seconds())
	case EventTelemetry:
		if e.Telemetry != nil {
			st.snaps[e.Shard] = *e.Telemetry
		}
	case EventTraces:
		st.traces[e.Shard] = e.Traces
	}
}

// backoffGauge publishes the shard's current restart backoff in
// seconds (0 once it is running again). Caller holds mu.
func (st *Status) backoffGauge(shard int, secs float64) {
	if st.gBackoff != nil {
		st.gBackoff[shard].Set(secs)
	}
}

// exitCounter counts worker exits by outcome. Caller holds mu.
func (st *Status) exitCounter(shard int, ok bool) {
	if st.reg == nil {
		return
	}
	outcome := "crash"
	if ok {
		outcome = "ok"
	}
	st.reg.Counter(fmt.Sprintf("veritas_dispatch_worker_exits_total{shard=%q,outcome=%q}", fmt.Sprint(shard), outcome)).Inc()
}

// SetAgentSource registers fn as the supplier of fleet agent rows;
// Snapshot calls it (outside st.mu) so /v1/status shows live agent
// liveness from the fleetd dispatcher's lease table. Call before the
// first Snapshot; nil leaves agent rows off (local dispatches).
func (st *Status) SetAgentSource(fn func() []AgentStatus) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.agents = fn
}

// Snapshot captures the current fleet view.
func (st *Status) Snapshot() StatusSnapshot {
	// The supervisor registry snapshot is taken outside st.mu: callback
	// metrics may take arbitrary locks.
	merged := st.reg.Snapshot()
	st.mu.Lock()
	agents := st.agents
	out := StatusSnapshot{
		Shards:         append([]ShardStatus(nil), st.shards...),
		Restarts:       st.total,
		Steals:         st.steals,
		Folded:         st.folded,
		ElapsedSeconds: time.Since(st.start).Seconds(),
	}
	for _, s := range st.shards {
		out.Done += s.Done
		out.Total += s.Total
	}
	snaps := append([]telemetry.Snapshot(nil), st.snaps...)
	st.mu.Unlock()
	for _, snap := range snaps {
		merged = merged.Merge(snap)
	}
	out.Telemetry = merged
	if agents != nil {
		out.Agents = agents()
	}
	return out
}

// WorkerTraces returns each shard's latest streamed notable-trace set
// (nil slots for shards that streamed none yet).
func (st *Status) WorkerTraces() [][]tracing.Trace {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([][]tracing.Trace, len(st.traces))
	for i, set := range st.traces {
		out[i] = append([]tracing.Trace(nil), set...)
	}
	return out
}

// Traces merges the supervisor's own traces with every worker's latest
// streamed set into the fleet-wide "slowest sessions" view, under the
// supervisor tracer's tail-sampling policy.
func (st *Status) Traces() []tracing.Trace {
	sets := st.WorkerTraces()
	return tracing.Merge(st.trc.Keep(), append([][]tracing.Trace{st.trc.Traces()}, sets...)...)
}
