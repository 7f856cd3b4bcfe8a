// Package dispatch is the shard supervisor of the Veritas fleet: the
// control plane that turns the manual multi-process runbook — launch
// one `fleet -shard i/n` per machine, wait, copy the stores together,
// fold — into a single supervised lifecycle on one machine. It also
// holds the half of a dispatch the networked plane (package fleetd)
// shares with it: the Plane.
//
// NewPlane enforces the shard layout before anything runs: a store
// directory under Dir left by a different shard assignment (a previous
// run with another shard count, or a stray store) is detected via its
// shard.json and refused, because resuming workers into mispartitioned
// stores would corrupt the campaign.
//
// Run then spawns one worker process per shard, each writing its slice
// of the campaign into its own store directory under Config.Dir, and
// babysits them:
//
//   - Progress streaming. Worker stdout is scanned for the NDJSON
//     progress protocol ({"type":"progress","done":D,"total":T});
//     protocol lines become Progress events, everything else (and all
//     of stderr) becomes Line events, so the supervisor's caller sees
//     one merged, labeled event stream for the whole fleet.
//   - Crash restarts. A worker that exits non-zero (or dies on a
//     signal) is relaunched into the same store directory after an
//     exponential backoff, up to MaxRestarts times. Workers run their
//     campaigns with resume-from-store semantics, so a restart
//     recomputes only the sessions the crash lost — finished sessions
//     are already durable in the shard store.
//   - Signal forwarding. When ctx is cancelled (the operator's Ctrl-C
//     or SIGTERM), every live worker is terminated gracefully and
//     given DefaultGrace to sync its store before being killed.
//   - Fold-after-supervision. Once every shard has completed, the
//     shard stores are folded — ordered by recorded shard index, so
//     the result is deterministic — into FoldInto, yielding one corpus
//     whose aggregate report is byte-identical to a single-process run
//     of the same campaign.
package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// Defaults for the restart policy and shutdown grace.
const (
	DefaultMaxRestarts = 2
	DefaultBackoff     = 500 * time.Millisecond
	DefaultGrace       = 5 * time.Second
	maxBackoff         = 30 * time.Second
)

// Worker identifies one spawn attempt: shard Shard of Shards, attempt
// Attempt (0 is the first launch), writing into StoreDir. Command
// factories receive it to build the process for that attempt.
type Worker struct {
	Shard    int
	Shards   int
	Attempt  int
	StoreDir string
}

// Config describes one dispatch to either control plane; NewPlane
// builds the dispatch's shared half from it.
type Config struct {
	// Shards is the campaign's shard count: the worker processes of a
	// local dispatch, the unit of leasing of a fleet one.
	Shards int
	// Dir is the parent directory the per-shard stores live under, as
	// ShardDir lays them out. Created if missing.
	Dir string
	// FoldInto, when non-empty, is the store directory the shard stores
	// are folded into (store.Fold, under its replace rule) once every
	// shard completes.
	FoldInto string
	// Fingerprints are the acceptable campaign.json forms of the
	// campaign being dispatched: NewPlane's pre-flight
	// (store.CheckFoldTarget) judges FoldInto by them before any shard
	// runs, so a destination holding a different campaign fails fast,
	// not after the campaign. A fleet dispatcher verifies uploads
	// against them too.
	Fingerprints [][]byte
	// OnEvent, when set, receives the dispatch's merged event stream.
	// Calls are serialized (Plane.Emit), so the callback needs no
	// locking of its own.
	OnEvent func(Event)
	// Telemetry and Tracer observe the control plane itself: the Status
	// view keeps per-shard gauges in Telemetry and merges it with every
	// worker's streamed snapshot; Tracer records one trace per worker
	// attempt (spawn → exit, errored on crash), one per restart backoff
	// wait, and the fold. Worker-side session traces arrive separately
	// as EventTraces. Either may be nil.
	Telemetry *telemetry.Registry
	Tracer    *tracing.Tracer
}

// Workers says how a shard's worker processes are run: one per shard
// under Run, one per lease under a fleet agent's RunShard.
type Workers struct {
	// Command builds the process for one worker attempt. The supervisor
	// owns the process's stdout/stderr (do not set them) and its
	// lifecycle. Required.
	Command func(w Worker) (*exec.Cmd, error)
	// MaxRestarts is the per-shard crash-restart budget (not counting
	// the first launch), taken as given: zero disables restarts and a
	// negative budget is refused. A shard that fails MaxRestarts+1 times
	// fails the dispatch and cancels its siblings.
	MaxRestarts int
	// Backoff is the delay before the first restart; it doubles per
	// subsequent restart of the same shard, capped at 30s. Zero or
	// negative means DefaultBackoff.
	Backoff time.Duration
	// KeepProcessGroup leaves workers in the supervisor's own process
	// group instead of isolating each into its own. A terminal-run
	// dispatcher wants isolation (Ctrl-C must reach only the
	// supervisor); a fleet agent wants the opposite — its workers must
	// die with it, so that SIGKILLing the agent's process group leaves
	// no orphan still writing into the agent's store directories.
	// Cancellation then signals the worker process directly rather than
	// its (non-existent) group.
	KeepProcessGroup bool
}

func (wk Workers) backoff(attempt int) time.Duration {
	d := wk.Backoff
	if d <= 0 {
		d = DefaultBackoff
	}
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// check refuses a missing Command and a negative restart budget: 0
// already means no restarts, so a negative one can only be a mistake.
func (wk Workers) check() error {
	if wk.Command == nil {
		return errors.New("dispatch: Workers.Command is required")
	}
	if wk.MaxRestarts < 0 {
		return fmt.Errorf("dispatch: restart budget %d is negative (0 disables restarts)", wk.MaxRestarts)
	}
	return nil
}

// EventType labels a supervisor event.
type EventType string

const (
	// EventStart: a worker process started (PID set).
	EventStart EventType = "start"
	// EventProgress: a worker reported Done of Total sessions.
	EventProgress EventType = "progress"
	// EventLine: one non-protocol output line from a worker (Line set;
	// Stream says which of "stdout"/"stderr" it came from).
	EventLine EventType = "line"
	// EventExit: a worker exited; Err is nil on success.
	EventExit EventType = "exit"
	// EventRestart: a crashed worker will be relaunched after Delay.
	EventRestart EventType = "restart"
	// EventFold: the shard stores were folded; Done is the session
	// count of the folded corpus.
	EventFold EventType = "fold"
	// EventTelemetry: a worker streamed a telemetry snapshot up the
	// protocol (Telemetry set). Snapshots are cumulative per attempt;
	// a Status tracker merges the latest one per shard into the
	// supervisor's fleet view.
	EventTelemetry EventType = "telemetry"
	// EventTraces: a worker streamed its notable-trace set up the
	// protocol (Traces set). Like telemetry snapshots the set is
	// cumulative — the worker's current tail sample, not a delta — so a
	// Status tracker keeps the latest set per shard and merges at query
	// time, which makes re-streaming duplication-free by construction.
	EventTraces EventType = "traces"

	// Fleet lifecycle events, synthesized by a fleetd dispatcher from
	// its lease table so one Status tracker renders local and networked
	// dispatches alike.

	// EventLease: a shard was leased to an agent (Agent, Epoch set).
	EventLease EventType = "lease"
	// EventSteal: a lease expired (missed heartbeats, or a straggler
	// past the hard deadline) and the shard went back to the pending
	// queue for re-leasing. Agent/Epoch identify the lease that was
	// revoked; Err says why.
	EventSteal EventType = "steal"
	// EventUpload: an agent's shard store upload was verified and
	// accepted (Done carries its session count). The shard is complete.
	EventUpload EventType = "upload"
)

// Event is one entry of the supervisor's merged event stream.
type Event struct {
	Type    EventType
	Shard   int
	Attempt int
	// PID is the worker process id (start, progress, line, exit).
	PID int
	// Done/Total carry progress counts (progress) and the folded
	// session count (fold, in Done).
	Done, Total int
	// Line and Stream carry forwarded worker output (line events).
	Line   string
	Stream string
	// Delay is the backoff before the relaunch (restart events).
	Delay time.Duration
	// Err is the worker's exit error (exit events of crashed workers).
	Err error
	// Telemetry is the worker's metrics snapshot (telemetry events).
	Telemetry *telemetry.Snapshot
	// Traces is the worker's notable-trace set (traces events).
	Traces []tracing.Trace
	// Agent names the fleet agent the event concerns (fleet events, and
	// progress/telemetry/traces relayed over the wire by a fleetd
	// dispatcher). Empty for local dispatches.
	Agent string
	// Epoch is the lease epoch the event belongs to (fleet events).
	// Epochs fence stale agents: a heartbeat or upload carrying an
	// older epoch than the lease table's is rejected.
	Epoch int
}

// Result summarizes a completed dispatch.
type Result struct {
	// ShardDirs are the per-shard store directories, in shard order.
	ShardDirs []string
	// Restarts counts crash-relaunches across all shards.
	Restarts int
	// Folded is the session count of the folded store (0 when folding
	// was disabled).
	Folded int
	// Elapsed is the wall-clock time of the whole dispatch.
	Elapsed time.Duration
}

// ShardDir returns the store directory shard i of a dispatch rooted at
// dir writes into: dir/shard-<i>.store.
func ShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.store", i))
}

// Run is the local control plane: it spawns every shard's worker,
// babysits crashes with restart-resume, then folds (Plane.Fold). The
// first shard to exhaust its restart budget cancels the others (their
// stores stay resumable); ctx cancellation terminates every worker
// gracefully and returns ctx's error.
func Run(ctx context.Context, p *Plane, wk Workers) (*Result, error) {
	if err := wk.check(); err != nil {
		return nil, err
	}
	start := time.Now()
	sup := supervisor{wk: wk, shards: p.cfg.Shards, trc: p.cfg.Tracer, emit: p.Emit}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		restarts atomic.Int64
	)
	for i, dir := range p.dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sup.babysit(runCtx, i, dir, &restarts); err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The operator cancelled; report that, not the worker exits the
		// cancellation induced.
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := checkShardsComplete(p.dirs, p.cfg.Shards); err != nil {
		return nil, err
	}
	folded, err := p.Fold()
	if err != nil {
		return nil, err
	}
	return &Result{ShardDirs: p.ShardDirs(), Restarts: int(restarts.Load()), Folded: folded, Elapsed: time.Since(start)}, nil
}

// RunShard runs shard of of's worker lifecycle — the per-shard slice of
// Run, without a Plane: spawn the worker into storeDir, stream its
// events to onEvent (serialized; nil drops them), and restart crashes
// with backoff under the budget. It exists for fleet agents, which hold
// a lease on exactly one shard at a time and fold nothing locally (the
// dispatcher folds after uploads). Returns the restart count alongside
// the terminal error.
func RunShard(ctx context.Context, wk Workers, shard, of int, storeDir string, onEvent func(Event)) (int, error) {
	if err := wk.check(); err != nil {
		return 0, err
	}
	if shard < 0 || shard >= of {
		return 0, fmt.Errorf("dispatch: shard %d out of range 0..%d", shard, of-1)
	}
	var mu sync.Mutex
	emit := func(e Event) {
		if onEvent != nil {
			mu.Lock()
			defer mu.Unlock()
			onEvent(e)
		}
	}
	var restarts atomic.Int64
	err := supervisor{wk: wk, shards: of, emit: emit}.babysit(ctx, shard, storeDir, &restarts)
	return int(restarts.Load()), err
}

// CheckLayout is the pre-flight partial-shard detection both control
// planes run: every shard store already under dir must belong to a
// dispatch of shards shards — same shard count, and sitting in the
// directory its recorded index names (ShardDir). A leftover from a
// dispatch with a different shard count (or a stray shard store dropped
// into dir) is refused before any worker starts or lease is granted,
// because resuming into mispartitioned stores would mix differently
// partitioned runs. It returns the shards whose stores are there.
func CheckLayout(dir string, shards int) (stamped []int, err error) {
	found, err := store.DiscoverShards(dir)
	if err != nil {
		return nil, err
	}
	for _, d := range found {
		m, ok, err := store.ReadShardMeta(d)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // raced away; the worker will re-stamp it
		}
		if m.Count != shards {
			return nil, fmt.Errorf("dispatch: %s holds shard %d/%d of a previous layout, not 1 of %d; fold or remove it first",
				d, m.Index, m.Count, shards)
		}
		if want := ShardDir(dir, m.Index); d != want {
			return nil, fmt.Errorf("dispatch: %s records shard %d/%d but shard %d writes to %s; remove the stray store",
				d, m.Index, m.Count, m.Index, want)
		}
		stamped = append(stamped, m.Index)
	}
	return stamped, nil
}

// checkShardsComplete is the post-run counterpart: with more than one
// shard, every worker that claimed success must have left a store
// stamped with its assignment. A "worker" that exited 0 without
// writing its shard store (a host binary that forgot the worker
// entrypoint, say) must not reach the fold as a silently empty shard.
func checkShardsComplete(dirs []string, shards int) error {
	if shards <= 1 {
		return nil
	}
	for i, d := range dirs {
		m, ok, err := store.ReadShardMeta(d)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("dispatch: shard %d/%d exited successfully but left no shard store at %s (is the worker binary a dispatch worker?)",
				i, shards, d)
		}
		if m.Index != i || m.Count != shards {
			return fmt.Errorf("dispatch: %s records shard %d/%d, want %d/%d", d, m.Index, m.Count, i, shards)
		}
	}
	return nil
}

// supervisor runs the workers of one dispatch (Run) or one lease
// (RunShard): shards is the campaign's shard count, trc (may be nil)
// traces attempts and backoffs, and emit is the serialized event path.
type supervisor struct {
	wk     Workers
	shards int
	trc    *tracing.Tracer
	emit   func(Event)
}

// babysit owns one shard's lifecycle: spawn, stream, and restart with
// backoff until the worker succeeds, the budget runs out, or the run
// is cancelled.
func (s supervisor) babysit(ctx context.Context, shard int, dir string, restarts *atomic.Int64) error {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := s.runWorker(ctx, Worker{Shard: shard, Shards: s.shards, Attempt: attempt, StoreDir: dir})
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The exit was (or is indistinguishable from) the shutdown
			// we requested; don't burn restart budget on it.
			return ctx.Err()
		}
		if attempt >= s.wk.MaxRestarts {
			return fmt.Errorf("dispatch: shard %d/%d failed permanently after %d attempt(s): %w",
				shard, s.shards, attempt+1, err)
		}
		delay := s.wk.backoff(attempt)
		s.emit(Event{Type: EventRestart, Shard: shard, Attempt: attempt + 1, Delay: delay, Err: err})
		restarts.Add(1)
		tb := s.trc.Start("backoff", fmt.Sprintf("shard-%d", shard))
		tb.SetAttr("attempt", attempt+1)
		tb.SetAttr("delaySeconds", delay.Seconds())
		select {
		case <-time.After(delay):
			tb.Finish(nil)
		case <-ctx.Done():
			tb.Finish(ctx.Err())
			return ctx.Err()
		}
	}
}

// runWorker runs one worker attempt to completion: wire pipes, start,
// stream events, forward cancellation as a graceful terminate (then a
// kill after DefaultGrace), and return the exit error.
func (s supervisor) runWorker(ctx context.Context, w Worker) error {
	cmd, err := s.wk.Command(w)
	if err != nil {
		return fmt.Errorf("dispatch: shard %d command: %w", w.Shard, err)
	}
	if cmd.Stdout != nil || cmd.Stderr != nil {
		return fmt.Errorf("dispatch: shard %d command pre-wires stdout/stderr (the supervisor owns them)", w.Shard)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	if !s.wk.KeepProcessGroup {
		isolate(cmd)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("dispatch: shard %d: %w", w.Shard, err)
	}
	pid := cmd.Process.Pid
	tb := s.trc.Start("worker", fmt.Sprintf("shard-%d", w.Shard))
	tb.SetAttr("attempt", w.Attempt+1)
	tb.SetAttr("pid", pid)
	s.emit(Event{Type: EventStart, Shard: w.Shard, Attempt: w.Attempt, PID: pid})

	var scanWg sync.WaitGroup
	scanWg.Add(2)
	go func() {
		defer scanWg.Done()
		scanStdout(stdout, w, pid, s.emit)
	}()
	go func() {
		defer scanWg.Done()
		scanLines(stderr, w, pid, "stderr", s.emit)
	}()

	// Forward cancellation: terminate gracefully, then kill after the
	// grace period if the worker ignores it.
	waitDone := make(chan struct{})
	var killWg sync.WaitGroup
	killWg.Add(1)
	go func() {
		defer killWg.Done()
		select {
		case <-waitDone:
		case <-ctx.Done():
			terminate(cmd.Process, !s.wk.KeepProcessGroup)
			select {
			case <-waitDone:
			case <-time.After(DefaultGrace):
				kill(cmd.Process, !s.wk.KeepProcessGroup)
			}
		}
	}()

	scanWg.Wait()
	err = cmd.Wait()
	close(waitDone)
	killWg.Wait()
	tb.Finish(err)
	s.emit(Event{Type: EventExit, Shard: w.Shard, Attempt: w.Attempt, PID: pid, Err: err})
	return err
}

// Message is one line of the worker's stdout protocol: a JSON object
// per line, told apart by Type. "progress" carries Done and Total (the
// shard's sessions, both at least 1), "telemetry" a cumulative registry
// Snapshot, "traces" the worker's tail-sampled Traces. The worker
// entrypoint encodes it and scanStdout decodes it, so the two ends
// cannot disagree on a key.
type Message struct {
	Type     string              `json:"type"`
	Shard    int                 `json:"shard"`
	Done     int                 `json:"done,omitempty"`
	Total    int                 `json:"total,omitempty"`
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
	Traces   []tracing.Trace     `json:"traces,omitempty"`
}

// scanStdout splits a worker's stdout into protocol events and plain
// lines. Protocol lines are Messages; anything else is forwarded
// verbatim.
func scanStdout(r io.Reader, w Worker, pid int, emit func(Event)) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		var msg Message
		if len(line) > 0 && line[0] == '{' && json.Unmarshal([]byte(line), &msg) == nil {
			switch {
			case msg.Type == "progress":
				emit(Event{Type: EventProgress, Shard: w.Shard, Attempt: w.Attempt, PID: pid, Done: msg.Done, Total: msg.Total})
				continue
			case msg.Type == "telemetry" && msg.Snapshot != nil:
				emit(Event{Type: EventTelemetry, Shard: w.Shard, Attempt: w.Attempt, PID: pid, Telemetry: msg.Snapshot})
				continue
			case msg.Type == "traces" && msg.Traces != nil:
				emit(Event{Type: EventTraces, Shard: w.Shard, Attempt: w.Attempt, PID: pid, Traces: msg.Traces})
				continue
			}
		}
		emit(Event{Type: EventLine, Shard: w.Shard, Attempt: w.Attempt, PID: pid, Line: line, Stream: "stdout"})
	}
	drain(sc.Err(), r, w, pid, "stdout", emit)
}

// scanLines forwards every line of r as a Line event.
func scanLines(r io.Reader, w Worker, pid int, stream string, emit func(Event)) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		emit(Event{Type: EventLine, Shard: w.Shard, Attempt: w.Attempt, PID: pid, Line: sc.Text(), Stream: stream})
	}
	drain(sc.Err(), r, w, pid, stream, emit)
}

// drain keeps a worker's pipe flowing after a scan error (a single
// line past the Scanner's 1MB cap aborts it): abandoning the pipe
// would fill the OS buffer, block the worker's writes, and wedge
// cmd.Wait — and with it the whole dispatch — forever. The discarded
// remainder is surfaced as a line event rather than lost silently.
func drain(err error, r io.Reader, w Worker, pid int, stream string, emit func(Event)) {
	if err == nil {
		return
	}
	n, _ := io.Copy(io.Discard, r)
	emit(Event{
		Type: EventLine, Shard: w.Shard, Attempt: w.Attempt, PID: pid, Stream: stream,
		Line: fmt.Sprintf("[supervisor] %s scan aborted (%v); %d trailing bytes discarded", stream, err, n),
	})
}
