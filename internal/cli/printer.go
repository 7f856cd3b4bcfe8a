package cli

import (
	"fmt"
	"log/slog"
	"strings"
	"time"

	"veritas"
)

// StatusEndpoints names every GET route a dispatch listener serves —
// fleet's -status listener and veritasd's fleet listener alike — for
// the line each CLI logs when its listener is up.
const StatusEndpoints = "/v1/status /metrics /v1/trace /healthz /v1/live/report /v1/live/report/cdf /v1/live/report/series /v1/live/report/percentiles /v1/live/status"

// DispatchPrinter renders a dispatch event stream for the terminal —
// the local supervisor's (fleet -dispatch) and the networked
// dispatcher's (veritasd) alike. Lifecycle events (starts, leases,
// steals, uploads, restarts, the fold) always print. Per-shard progress
// lines are verbose-only (-progress; a large campaign completes
// thousands of sessions) — but even without it, progress events fold
// into a one-line fleet summary (done/total per shard, restarts,
// steals) reprinted at most every two seconds, so a long campaign is
// never silent between lifecycle events. Both dispatchers serialize
// event callbacks, so the printer needs no locking.
type DispatchPrinter struct {
	log      *slog.Logger
	verbose  bool
	done     []int
	total    []int
	restarts int
	steals   int
	lastSum  time.Time
}

// NewDispatchPrinter returns a printer for a dispatch of shards shards.
func NewDispatchPrinter(log *slog.Logger, shards int, verbose bool) *DispatchPrinter {
	return &DispatchPrinter{log: log, verbose: verbose, done: make([]int, shards), total: make([]int, shards)}
}

// shardAttrs labels an event's log line: its shard, its agent when the
// event came over the network, then rest.
func shardAttrs(e veritas.DispatchEvent, rest ...any) []any {
	attrs := []any{"shard", e.Shard}
	if e.Agent != "" {
		attrs = append(attrs, "agent", e.Agent)
	}
	return append(attrs, rest...)
}

// Handle is the WithDispatchEvents callback.
func (p *DispatchPrinter) Handle(e veritas.DispatchEvent) {
	switch e.Type {
	case veritas.DispatchStart:
		p.log.Info("worker started", "shard", e.Shard, "shards", len(p.done), "pid", e.PID, "attempt", e.Attempt+1)
	case veritas.DispatchLease:
		p.log.Info("shard leased", shardAttrs(e, "epoch", e.Epoch)...)
	case veritas.DispatchSteal:
		p.steals++
		p.log.Warn("lease stolen", shardAttrs(e, "epoch", e.Epoch, "reason", e.Err)...)
	case veritas.DispatchUpload:
		p.log.Info("shard store accepted", shardAttrs(e, "sessions", e.Done)...)
	case veritas.DispatchProgress:
		if e.Shard >= 0 && e.Shard < len(p.done) {
			p.done[e.Shard], p.total[e.Shard] = e.Done, e.Total
		}
		if p.verbose {
			p.log.Info("shard progress", shardAttrs(e, "done", e.Done, "total", e.Total)...)
		} else {
			p.summary(false)
		}
	case veritas.DispatchTelemetry, veritas.DispatchTraces:
		// Worker metrics snapshots and trace sets feed the status
		// listener (and the final -trace export); nothing to print.
	case veritas.DispatchLine:
		p.log.Info("worker output", "shard", e.Shard, "stream", e.Stream, "line", e.Line)
	case veritas.DispatchExit:
		if e.Err == nil {
			break
		}
		msg := "worker failed"
		if e.Agent != "" {
			msg = "agent reported worker failure"
		}
		p.log.Error(msg, shardAttrs(e, "error", e.Err)...)
	case veritas.DispatchRestart:
		p.restarts++
		p.log.Warn("restarting shard", "shard", e.Shard, "attempt", e.Attempt+1, "backoff", e.Delay.String())
	case veritas.DispatchFold:
		p.summary(true) // close the progress story before the fold line
		p.log.Info("folded shard stores", "sessions", e.Done, "shards", len(p.done),
			"restarts", p.restarts, "steals", p.steals)
	}
}

// summary logs the one-line fleet overview, rate-limited unless
// forced.
func (p *DispatchPrinter) summary(force bool) {
	if !force && time.Since(p.lastSum) < 2*time.Second {
		return
	}
	p.lastSum = time.Now()
	done, total := 0, 0
	parts := make([]string, len(p.done))
	for i := range p.done {
		done += p.done[i]
		total += p.total[i]
		parts[i] = fmt.Sprintf("%d:%d/%d", i, p.done[i], p.total[i])
	}
	p.log.Info("fleet progress", "done", done, "total", total,
		"shards", strings.Join(parts, " "), "restarts", p.restarts, "steals", p.steals)
}
