// Package engine is the fleet layer of the Veritas reproduction: a
// sharded, worker-pool batch causal-query engine. Where the facade
// answers one query over one session log, the engine takes a corpus of
// sessions and fans the per-session pipeline — simulate Setting A,
// Abduct, replay every what-if arm, answer interventional queries —
// out across GOMAXPROCS workers.
//
// Four properties the single-session path does not have:
//
//   - A shared queue: workers pull one corpus index at a time, so they
//     stay busy even when session costs are skewed (long rebuffering
//     sessions abduce more intervals).
//   - Scratch arenas: each worker owns one hmm.Scratch sized by the
//     largest session shape it has seen and recycled across its whole
//     corpus slice, so the per-session inference path is
//     allocation-flat. Retained abductions (Config.KeepAbductions)
//     would alias recycled memory, so that mode falls back to fresh
//     per-session buffers.
//   - Shared transition powers: sessions with equal capacity grids
//     share one process-wide table of transition-matrix powers (see
//     mathx.SharedPowers) instead of rebuilding it per session.
//   - Aggregation: every finished session folds into a thread-safe
//     Partials (one digest per session); reports are built in session
//     order, so they are byte-identical for every worker count.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"veritas/internal/abduction"
	"veritas/internal/abr"
	"veritas/internal/hmm"
	"veritas/internal/mathx"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/telemetry"
	"veritas/internal/trace"
	"veritas/internal/tracing"
	"veritas/internal/video"
)

// Config parameterizes a fleet run. The zero value is usable: all
// workers, default sampling.
type Config struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Samples is the posterior sample count K used when a spec's
	// abduction config leaves it zero (default
	// abduction.DefaultSamples).
	Samples int
	// Seed derives per-session abduction seeds for specs that leave
	// Abduct.Seed zero, keeping fleet runs reproducible end to end.
	Seed int64
	// KeepAbductions retains each session's *abduction.Abduction in its
	// result. Off by default: posteriors are large, and fleet-scale runs
	// only need the aggregates.
	KeepAbductions bool
	// OnResult, when set, is called once per completed session, from
	// worker goroutines, in completion order. It must be safe for
	// concurrent use.
	OnResult func(SessionResult)
	// OnProgress, when set, is called once per completed session, from
	// worker goroutines, with the count of sessions completed so far and
	// the total this run will execute (the corpus minus the Skip set and
	// any out-of-shard sessions). Each call carries a distinct done
	// value and the final call's done equals total, but calls from
	// different workers may be observed out of order. It must be safe
	// for concurrent use. This is the per-shard progress hook the
	// dispatch supervisor streams out of worker processes.
	OnProgress func(done, total int)
	// Sink, when set, receives every completed session result in
	// completion order — the streaming persistence hook behind
	// `cmd/fleet -store`. Put is called from worker goroutines; the
	// first Put error aborts the run. Setting a Sink also bounds the
	// run's memory: Result.Sessions then retains only the compact
	// per-session fields (logs are dropped once sunk, and abductions
	// are kept only under KeepAbductions), since the full data lives
	// in the sink.
	Sink Sink
	// Skip holds effective session IDs (SessionSpec.ID, or the
	// "session-<index>" default) to leave out of the run: they are not
	// simulated, aggregated or sunk, but keep their corpus index — and
	// therefore their derived abduction seed — so a resumed campaign
	// computes exactly what an uninterrupted one would have.
	Skip map[string]bool
	// ShardIndex/ShardCount partition the corpus for multi-process
	// dispatch: with ShardCount n > 1, only sessions whose corpus index
	// i satisfies i mod n == ShardIndex are executed. The partition is
	// by corpus index, so every session keeps the index — and therefore
	// the derived abduction seed — it has in the unsharded run: n
	// shards' results folded back together are byte-identical to one
	// process computing the whole corpus. ShardCount 0 (or 1) means no
	// sharding.
	ShardIndex int
	ShardCount int
	// DiscardResults leaves Result.Sessions empty: completed sessions
	// flow only through Sink/OnResult and Result.Partials. This is what
	// bounds a streaming consumer's memory — nothing per-session is
	// retained beyond the partials' per-session digests.
	DiscardResults bool
	// Telemetry, when set, receives per-stage latency histograms, the
	// session throughput counter and power-cache counters for the run
	// (metric names veritas_engine_*). Recording is a few atomic adds
	// per session and never feeds back into computation: results are
	// byte-identical with and without a registry.
	Telemetry *telemetry.Registry
	// Tracer, when set, records one tail-sampled trace per session with
	// simulate/abduct/replay/predict child spans (chunk counts and arm
	// names attached). Like Telemetry, tracing only observes — it never
	// feeds back into computation, and results are byte-identical with
	// and without a tracer. nil means tracing off.
	Tracer *tracing.Tracer
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) samples() int {
	if c.Samples > 0 {
		return c.Samples
	}
	return abduction.DefaultSamples
}

// inShard reports whether corpus index i belongs to this config's
// shard of the partition (always true when unsharded).
func (c Config) inShard(i int) bool {
	return c.ShardCount <= 1 || i%c.ShardCount == c.ShardIndex
}

// ShardSessions returns how many corpus indices in [0, total) belong
// to shard index of count — the session count a shard executes before
// any resume skips. It is computed with the same predicate Run
// partitions by, so callers reporting shard sizes can never diverge
// from what actually executes.
func ShardSessions(total, index, count int) int {
	cfg := Config{ShardIndex: index, ShardCount: count}
	n := 0
	for i := 0; i < total; i++ {
		if cfg.inShard(i) {
			n++
		}
	}
	return n
}

// SessionSpec describes one session of the corpus: either a ground-truth
// trace to simulate Setting A over, or a pre-recorded log to invert
// directly. Video, Net and BufferCap default to the facade's defaults.
type SessionSpec struct {
	// ID labels the session in results; empty means "session-<index>".
	ID string
	// Scenario labels the bandwidth regime the session came from; it
	// rides through results into the store, where the serving layer
	// groups and filters by it. Optional.
	Scenario string
	// Trace is the ground-truth bandwidth. Required unless Log is set;
	// when present alongside arms it also enables the oracle replay.
	Trace *trace.Trace
	// Log is a pre-recorded session log. When set, the Setting-A
	// simulation is skipped and the log is inverted as-is.
	Log *player.SessionLog
	// Video, NewABR, BufferCap, Net, MaxChunks configure the Setting-A
	// simulation (ignored when Log is set).
	Video     *video.Video
	NewABR    func() abr.Algorithm
	BufferCap float64
	Net       *netem.Config
	MaxChunks int
	// Abduct configures the inversion. Zero NumSamples and Seed are
	// filled from the engine config.
	Abduct abduction.Config
	// SimulateOnly stops after the Setting-A simulation: no abduction,
	// arms or predictions. Used to batch-generate corpora of logs.
	SimulateOnly bool
	// Predict lists interventional download-time queries answered from
	// this session's abduction (paper §4.4).
	Predict []PredictQuery
}

// PredictQuery is one interventional query: the download time of a
// hypothetical chunk of SizeBytes requested at StartSecs with TCP state
// TCP.
type PredictQuery struct {
	StartSecs float64
	TCP       tcp.State
	SizeBytes float64
}

// Arm is one what-if setting of the query matrix, replayed against
// every session's posterior.
type Arm struct {
	Name    string
	Setting abduction.Setting
}

// ArmOutcome is one session × arm cell: the replay metrics under the
// Baseline estimate, each Veritas posterior sample, and (when the spec
// carried the ground truth) the oracle.
type ArmOutcome struct {
	Name     string
	Baseline player.Metrics
	Samples  []player.Metrics
	Truth    player.Metrics
	HasTruth bool
}

// SessionResult is everything the engine computed for one session.
type SessionResult struct {
	Index    int
	ID       string
	Scenario string
	Log      *player.SessionLog
	SettingA player.Metrics // zero when the spec supplied Log directly
	Arms     []ArmOutcome
	// Predictions[i] answers Predict[i], in seconds.
	Predictions []float64
	// Abd is the retained abduction when Config.KeepAbductions is set.
	Abd *abduction.Abduction
}

// Result is a completed fleet run.
type Result struct {
	Sessions []SessionResult // in corpus order; zero entries for skipped or out-of-shard sessions
	// Partials holds one digest per executed session — the reducer every
	// report is built from (Partials.Report, WriteReport).
	Partials *Partials
	// Powers counts shared transition-power cache traffic during the
	// run: one lookup per abduced session, a hit when the session's
	// capacity grid was already in the process-wide cache. The counts
	// are a delta of process-global counters, so they are best-effort
	// when several fleet runs (or other mathx.SharedPowers users)
	// overlap in one process. Misses are split by cause — cold (first
	// sight of a grid, inserted), fingerprint collision (never
	// cacheable), and registry capacity (cap reached) — the split a
	// cache-health gauge needs, since only repeated collision/capacity
	// misses indicate a thrashing fleet.
	Powers mathx.SharedPowersStats
	// Executed is the number of sessions actually run (corpus size
	// minus the resume skip set and any out-of-shard sessions).
	Executed int
	Workers  int
	Elapsed  time.Duration
}

// SessionsPerSecond is the batch throughput of the run over the
// sessions actually executed.
func (r *Result) SessionsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Executed) / r.Elapsed.Seconds()
}

// Run executes the fleet: every corpus session through the full
// pipeline, every arm of the query matrix, across the worker pool.
// A session error stops the run, and the error of the lowest failed
// session index is returned, whatever the worker count; ctx
// cancellation aborts promptly with ctx.Err().
func Run(ctx context.Context, cfg Config, corpus []SessionSpec, arms []Arm) (*Result, error) {
	if len(corpus) == 0 {
		return nil, errors.New("engine: empty corpus")
	}
	if cfg.ShardCount < 0 {
		return nil, fmt.Errorf("engine: shard count %d is negative", cfg.ShardCount)
	}
	if cfg.ShardCount > 1 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		return nil, fmt.Errorf("engine: shard index %d out of range [0, %d)", cfg.ShardIndex, cfg.ShardCount)
	}
	ids := make(map[string]int, len(corpus))
	executed := 0
	for i, spec := range corpus {
		if spec.Trace == nil && spec.Log == nil {
			return nil, fmt.Errorf("engine: session %d has neither Trace nor Log", i)
		}
		// Partials, the store and the resume set all key by effective ID;
		// two sessions sharing one would collapse into a single record.
		id := specID(spec, i)
		if j, dup := ids[id]; dup {
			return nil, fmt.Errorf("engine: sessions %d and %d share ID %q", j, i, id)
		}
		ids[id] = i
		if cfg.inShard(i) && !cfg.Skip[id] {
			executed++
		}
	}
	for i, a := range arms {
		if err := a.Setting.Validate(); err != nil {
			return nil, fmt.Errorf("engine: arm %d (%s): %w", i, a.Name, err)
		}
	}

	start := time.Now()
	workers := cfg.workers()
	pow0 := mathx.SharedPowersDetail()
	em := newEngineMetrics(cfg.Telemetry)

	parts := NewPartials()
	var results []SessionResult
	if !cfg.DiscardResults {
		results = make([]SessionResult, len(corpus))
	}
	var completed atomic.Int64
	// Per-worker reusable state: the inference arena, sized by the
	// largest session its worker sees and recycled across all of them.
	// KeepAbductions retains per-session results that would alias the
	// recycled arena, so that mode allocates fresh buffers per session
	// instead.
	scratch := make([]*hmm.Scratch, workers)
	err := forEachIndex(len(corpus), workers, func(w, i int) error {
		if !cfg.inShard(i) || cfg.Skip[specID(corpus[i], i)] {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if scratch[w] == nil && !cfg.KeepAbductions {
			scratch[w] = hmm.NewScratch()
		}
		tb := cfg.Tracer.Start("session", specID(corpus[i], i))
		res, err := runOne(cfg, corpus[i], arms, i, scratch[w], em, tb)
		tb.Finish(err)
		if err != nil {
			return fmt.Errorf("engine: session %d (%s): %w", i, corpus[i].ID, err)
		}
		parts.FoldRow(res.Row(), 0)
		if cfg.Sink != nil {
			if err := cfg.Sink.Put(res); err != nil {
				return fmt.Errorf("engine: session %d (%s): sink: %w", i, corpus[i].ID, err)
			}
		}
		if cfg.OnResult != nil {
			cfg.OnResult(res)
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(int(completed.Add(1)), executed)
		}
		if cfg.Sink != nil {
			// The sink owns the full data now; retaining every log in
			// Result.Sessions would defeat the streaming path's bounded
			// memory.
			res.Log = nil
		}
		if !cfg.DiscardResults {
			results[i] = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	powDelta := mathx.SharedPowersDetail().Sub(pow0)
	em.powers(powDelta)
	return &Result{
		Sessions: results,
		Partials: parts,
		Powers:   powDelta,
		Executed: executed,
		Workers:  workers,
		Elapsed:  time.Since(start),
	}, nil
}

// forEachIndex runs fn(w, 0) … fn(w, n−1) on up to workers goroutines
// (at least one), w being the index of the goroutine that runs the
// call, and returns the error of the lowest index that failed. Indices
// are handed out one at a time, in increasing order, so the goroutines
// stay busy however skewed the calls' costs are; each one handed out
// runs, and handing out stops once a failure is seen, so every index below a
// failed one has run: the error is the one a serial loop stopping at
// its first failure returns.
func forEachIndex(n, workers int, fn func(w, k int) error) error {
	workers = min(max(workers, 1), n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				if errs[k] = fn(w, k); errs[k] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// specID returns the effective session ID the engine uses everywhere:
// the spec's own ID, or the index-derived default.
func specID(spec SessionSpec, idx int) string {
	if spec.ID != "" {
		return spec.ID
	}
	return fmt.Sprintf("session-%d", idx)
}

// runOne executes the full pipeline for one session. It is pure given
// the spec and index — em and tb only observe durations and counts,
// never steering computation, and the worker-owned sc only recycles
// storage (a recycled arena behaves exactly like a fresh one) — which
// is what makes fleet results independent of worker count, scheduling,
// telemetry, and tracing. The caller finishes tb with runOne's error.
func runOne(cfg Config, spec SessionSpec, arms []Arm, idx int, sc *hmm.Scratch, em *engineMetrics, tb *tracing.T) (SessionResult, error) {
	res := SessionResult{Index: idx, ID: specID(spec, idx), Scenario: spec.Scenario}
	sessStart := em.now()
	if spec.Scenario != "" {
		tb.SetAttr("scenario", spec.Scenario)
	}

	log := spec.Log
	if log == nil {
		simStart := em.now()
		simT0 := tb.Now()
		vid := spec.Video
		if vid == nil {
			vid = video.Default()
		}
		newABR := spec.NewABR
		if newABR == nil {
			newABR = DefaultABR
		}
		net := netem.DefaultConfig()
		if spec.Net != nil {
			net = *spec.Net
		}
		buf := spec.BufferCap
		if buf == 0 {
			buf = player.DefaultBufferCap
		}
		var m player.Metrics
		var err error
		log, m, err = player.Run(player.Config{
			Video:     vid,
			ABR:       newABR(),
			Trace:     spec.Trace,
			Net:       net,
			BufferCap: buf,
			MaxChunks: spec.MaxChunks,
		})
		if err != nil {
			return res, fmt.Errorf("setting A: %w", err)
		}
		res.SettingA = m
		em.observe(em.simulate, simStart)
		tb.Span("simulate", simT0, map[string]any{"chunks": len(log.Records)})
	}
	res.Log = log
	tb.SetAttr("chunks", len(log.Records))
	if spec.SimulateOnly {
		em.sessionDone(sessStart)
		return res, nil
	}

	acfg := spec.Abduct
	if acfg.NumSamples == 0 {
		acfg.NumSamples = cfg.samples()
	}
	if acfg.Seed == 0 {
		// Distinct, index-stable seeds: the same corpus gives the same
		// posteriors whatever the worker count.
		acfg.Seed = cfg.Seed + 1 + int64(idx)*101
	}
	acfg.Scratch = sc // nil under KeepAbductions: results must own their buffers
	abductStart := em.now()
	abductT0 := tb.Now()
	abd, err := abduction.Abduct(log, acfg)
	if err != nil {
		return res, fmt.Errorf("abduct: %w", err)
	}
	em.observe(em.abduct, abductStart)
	tb.Span("abduct", abductT0, nil)
	if cfg.KeepAbductions {
		res.Abd = abd
	}

	for _, arm := range arms {
		armStart := em.now()
		armT0 := tb.Now()
		out, err := abd.Counterfactual(arm.Setting)
		if err != nil {
			return res, fmt.Errorf("arm %s: %w", arm.Name, err)
		}
		oc := ArmOutcome{Name: arm.Name, Baseline: out.Baseline, Samples: out.Samples}
		if spec.Trace != nil {
			truth, err := abd.Replay(spec.Trace, arm.Setting)
			if err != nil {
				return res, fmt.Errorf("arm %s oracle: %w", arm.Name, err)
			}
			oc.Truth = truth
			oc.HasTruth = true
		}
		res.Arms = append(res.Arms, oc)
		em.observe(em.replay, armStart)
		tb.Span("replay", armT0, map[string]any{"arm": arm.Name})
	}

	if len(spec.Predict) > 0 {
		predictStart := em.now()
		predictT0 := tb.Now()
		for _, q := range spec.Predict {
			res.Predictions = append(res.Predictions, abd.PredictDownloadTime(q.StartSecs, q.TCP, q.SizeBytes))
		}
		em.observe(em.predict, predictStart)
		tb.Span("predict", predictT0, map[string]any{"queries": len(spec.Predict)})
	}
	em.sessionDone(sessStart)
	return res, nil
}
