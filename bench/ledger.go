package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"veritas"
	"veritas/internal/abduction"
	"veritas/internal/abr"
	"veritas/internal/engine"
	"veritas/internal/hmm"
	"veritas/internal/mathx"
	"veritas/internal/player"
	"veritas/internal/serve"
	"veritas/internal/store"
	"veritas/internal/tcp"
)

// The traced run: the workload untraced, a short repetition of it
// under spans, then a stepwise pass that pushes a seeded sample of the
// workloads' own inputs through the layers one public call at a time.
// Every call is a span; a per-layer time is the median span over
// l.calls calls (a sixth as many for calls that take tens of
// milliseconds). End-to-end numbers are never taken from under spans.

// budgetRow is one line of "where a what-if session's time goes".
type budgetRow struct {
	Stage string  `json:"stage"`
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms_per_session"`
}

// layerFile is what a traced run leaves in bench/out/layers-<workload>.json.
type layerFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Metrics  map[string]metric `json:"metrics"`
	Layers   []layerTime       `json:"layers"`
	Budget   []budgetRow       `json:"session_budget"`
}

// tracedRun first runs the workload as an untraced run does, at full
// budget, for the demoted end-to-end metrics; then twice for a short
// budget, untraced and under spans (their difference is the tracing
// overhead); then the stepwise pass; and writes the trace and the layer
// file.
func tracedRun(w workload, r *run, outDir string) (map[string]metric, error) {
	if err := w.run(r); err != nil {
		return nil, err
	}
	short := min(r.budget, 2*time.Second)
	plain, err := r.sub("untraced", short, nil, nil, w.run)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(w.name)
	traced, err := r.sub("traced", short, rec, nil, w.run)
	if err != nil {
		return nil, err
	}
	// The stepwise pass's short query-read runs over a store of the
	// size its handler times are taken on.
	r.sz.storeRows = r.sz.ledgerRows

	l := &ledger{run: r, rec: rec, m: map[string]metric{}, calls: r.sz.ledgerCalls, heavy: (r.sz.ledgerCalls + 5) / 6}
	root := rec.begin(nil, "bench", "stepwise pass")
	sections := []struct {
		name string
		run  func() error
	}{
		{"causal core", l.causal}, {"engine", l.engine}, {"store", l.storeLayer},
		{"serve", l.serveLayer}, {"observability", l.observability}, {"short serving runs", l.shortRuns},
	}
	for _, s := range sections {
		t0 := time.Now()
		l.sp = rec.begin(root, "bench", s.name)
		err := s.run()
		l.sp.finish()
		if err == nil {
			err = l.err
		}
		if err != nil {
			return nil, fmt.Errorf("stepwise pass, %s: %w", s.name, err)
		}
		fmt.Fprintf(os.Stderr, "stepwise pass: %-18s %6.2f s\n", s.name, time.Since(t0).Seconds())
	}
	root.finish()
	d := mathx.SharedPowersDetail()
	l.set("mathx.shared_powers_hit_ratio", ratio(d.Hits, d.Misses()), "ratio")
	l.set("bench.trace_overhead_share", 1-median(traced.rates)/median(plain.rates), "ratio")
	for n, m := range r.demoted() {
		l.m[n] = m
	}
	l.set("bench.workers", float64(r.workers), "count")

	if err := rec.writeChrome(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	lf := layerFile{Workload: w.name, Seed: r.seed, Metrics: l.m, Layers: rec.layers(), Budget: l.budget}
	return l.m, writeJSON(filepath.Join(outDir, "layers-"+w.name+".json"), lf)
}

// sub runs a workload inside r for a shorter budget with one set-up,
// in its own scratch directory and under its own span, and adds its
// attempts and failures to r.
func (r *run) sub(name string, budget time.Duration, rec *recorder, parent *span, workload func(*run) error) (*run, error) {
	s := &run{sz: r.sz, seed: r.seed, budget: budget, workers: r.workers, dir: filepath.Join(r.dir, name), info: map[string]float64{}, lat: map[string][]float64{}, rec: rec}
	s.sz.setups = 1
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	s.root = rec.begin(parent, "bench", name)
	err := workload(s)
	s.root.finish()
	r.attempted += s.attempted
	r.failed += s.failed
	r.problems = append(r.problems, s.problems...)
	return s, err
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

type ledger struct {
	run    *run
	rec    *recorder
	sp     *span // the current section's span
	m      map[string]metric
	budget []budgetRow
	calls  int   // calls behind a time
	heavy  int   // calls behind a time that takes tens of milliseconds
	err    error // first error of a timed or allocs call
}

func (l *ledger) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

var perNs = map[string]float64{"ns": 1, "us": 1e-3, "ms": 1e-6}

// timed calls fn n times, each call a span of layer, and records the
// median duration as metric name (unless empty) in unit (ns, us or
// ms). fn does batch units of work per call; the metric is per unit.
// It returns the median in nanoseconds. The first error sticks in
// l.err and turns every later timed and allocs into a no-op, so a
// section checks once, at its end.
func (l *ledger) timed(name, unit, layer, call string, n, batch int, fn func(i int) error) float64 {
	durs := make([]float64, 0, n)
	for i := 0; i < n && l.err == nil; i++ {
		sp := l.rec.begin(l.sp, layer, call)
		t0 := time.Now()
		err := fn(i)
		d := time.Since(t0)
		sp.finish()
		if err != nil {
			l.err = fmt.Errorf("%s: %w", call, err)
		}
		durs = append(durs, float64(d.Nanoseconds())/float64(batch))
	}
	if name != "" {
		l.set(name, median(durs)*perNs[unit], unit)
	}
	return median(durs)
}

// allocs returns heap allocations and bytes per call of fn over n
// calls, from runtime.MemStats deltas (this goroutine is the only one
// allocating while it runs). Errors stick like timed's.
func (l *ledger) allocs(n int, fn func(i int) error) (count, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n && l.err == nil; i++ {
		l.err = fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// sampleCorpus is the what-if corpus cut down to ledgerSeries
// sessions, with its arms.
func (l *ledger) sampleCorpus() ([]engine.SessionSpec, []engine.Arm, error) {
	cfg := engine.CorpusConfig{Scenarios: scenarios, SessionsPer: l.run.sz.ledgerSeries / len(scenarios), NumChunks: l.run.sz.campaignChunks, Seed: l.run.seed}
	corpus, err := engine.BuildCorpus(cfg)
	if err != nil {
		return nil, nil, err
	}
	arms, err := engine.BuildMatrix(cfg, matrixABR, matrixBuf)
	return corpus, arms, err
}

func simulate(s engine.SessionSpec, a abr.Algorithm) (*player.SessionLog, player.Metrics, error) {
	return player.Run(player.Config{Video: s.Video, ABR: a, Trace: s.Trace, Net: *s.Net, BufferCap: s.BufferCap})
}

// causal times mathx, hmm, tcp, abduction and player on one recorded
// session of the what-if corpus, then walks the sample sessions through
// the pipeline stage by stage for the budget table.
func (l *ledger) causal() error {
	corpus, arms, err := l.sampleCorpus()
	if err != nil {
		return err
	}
	spec := corpus[0]
	log, _, err := simulate(spec, abr.NewMPC())
	if err != nil {
		return err
	}
	abd, err := abduction.Abduct(log, abduction.Config{NumSamples: 5, Seed: l.run.seed + 1})
	if err != nil {
		return err
	}
	hcfg := abd.ConfigUsed().HMM
	ns := abd.Model.NumStates()

	// mathx, at the model's state count; kernels are timed in batches.
	const batch = 1000
	a := hmm.Tridiagonal(ns, hcfg.StayProb)
	dst := mathx.NewMatrix(ns, ns)
	v, out := make([]float64, ns), make([]float64, ns)
	for i := range v {
		v[i] = 1 / float64(ns)
	}
	l.timed("mathx.mulvec_ns", "ns", "mathx", "MulVecInto", l.calls, batch, func(int) error {
		for k := 0; k < batch; k++ {
			a.MulVecInto(out, v)
		}
		return nil
	})
	l.timed("mathx.mul_ns", "ns", "mathx", "MulInto", l.calls, batch/10, func(int) error {
		for k := 0; k < batch/10; k++ {
			a.MulInto(dst, a)
		}
		return nil
	})
	warm := mathx.NewPowerCache(a)
	warm.PowLog(3)
	l.timed("mathx.powlog_hit_ns", "ns", "mathx", "PowLog hit", l.calls, batch, func(int) error {
		for k := 0; k < batch; k++ {
			warm.PowLog(3)
		}
		return nil
	})
	l.timed("mathx.pow_cold_us", "us", "mathx", "Pow cold", l.calls, 1, func(int) error {
		mathx.NewPowerCache(a).Pow(40)
		return nil
	})

	// hmm, through a reused arena the way an engine worker runs it.
	l.timed("hmm.new_us", "us", "hmm", "New", l.calls, 1, func(int) error {
		_, err := hmm.New(hcfg)
		return err
	})
	sc := hmm.NewScratch()
	model, err := hmm.New(hcfg)
	if err != nil {
		return err
	}
	model.SetScratch(sc)
	var infer300 float64
	for _, n := range []int{60, 120, 300} {
		obs, err := abduction.Observations(log.Prefix(n), hcfg.DeltaSecs)
		if err != nil {
			return err
		}
		infer := func(int) error {
			_, err := model.Infer(obs, 5, l.run.seed+1)
			return err
		}
		infer300 = l.timed(fmt.Sprintf("hmm.infer_us.chunks%d", n), "us", "hmm", fmt.Sprintf("Infer %d chunks", n), l.calls, 1, infer)
		if n == 300 {
			c, _ := l.allocs(l.calls, infer)
			l.set("hmm.infer_allocs", c, "count")
		}
	}

	// tcp: the emission model's inner call, over the log's own chunks.
	recs := log.Records
	l.timed("tcp.estimate_throughput_ns", "ns", "tcp", "EstimateThroughput", l.calls, len(recs), func(int) error {
		for _, rec := range recs {
			tcp.EstimateThroughput(4.5, rec.TCP, rec.SizeBytes)
		}
		return nil
	})

	// abduction.
	abduct := func(int) error {
		_, err := abduction.Abduct(log, abduction.Config{NumSamples: 5, Seed: l.run.seed + 1, Scratch: sc})
		return err
	}
	t := l.timed("abduction.abduct_ms", "ms", "abduction", "Abduct 300 chunks K=5", l.calls, 1, abduct)
	l.set("abduction.abduct_self_ms", (t-infer300)/1e6, "ms")
	c, _ := l.allocs(l.calls, abduct)
	l.set("abduction.abduct_allocs", c, "count")
	last := recs[len(recs)-1]
	l.timed("abduction.predict_us", "us", "abduction", "PredictDownloadTime", l.calls, batch, func(int) error {
		for k := 0; k < batch; k++ {
			abd.PredictDownloadTime(last.End, last.TCP, last.SizeBytes)
		}
		return nil
	})
	counterfactual := func(i int) error {
		_, err := abd.Counterfactual(arms[i%len(arms)].Setting)
		return err
	}
	l.timed("abduction.counterfactual_ms_per_arm", "ms", "abduction", "Counterfactual (one arm)", l.calls, 1, counterfactual)
	c, _ = l.allocs(l.calls, counterfactual)
	l.set("abduction.counterfactual_allocs_per_arm", c, "count")
	l.timed("abduction.replay_truth_ms", "ms", "abduction", "Replay truth (one arm)", l.calls, 1, func(i int) error {
		_, err := abduction.Replay(spec.Trace, arms[i%len(arms)].Setting)
		return err
	})

	// player, one full session per algorithm.
	for name, mk := range map[string]func() abr.Algorithm{
		"mpc":  func() abr.Algorithm { return abr.NewMPC() },
		"bba":  func() abr.Algorithm { return abr.NewBBA() },
		"bola": func() abr.Algorithm { return abr.NewBOLA() },
	} {
		l.timed("player.run_ms."+name, "ms", "player", "Run "+name, l.calls, 1, func(int) error {
			_, _, err := simulate(spec, mk())
			return err
		})
	}
	c, _ = l.allocs(l.calls, func(int) error {
		_, _, err := simulate(spec, abr.NewMPC())
		return err
	})
	l.set("player.run_allocs", c, "count")

	return l.sessionBudget(corpus, arms, sc)
}

// sessionBudget walks every sample session through the pipeline one
// public call at a time — what engine.Run does inside one worker — and
// compares the sum with a single-worker engine.Run over the same
// sessions: engine.attributed_share says how much of a session the
// stepwise pass accounts for.
func (l *ledger) sessionBudget(corpus []engine.SessionSpec, arms []engine.Arm, sc *hmm.Scratch) error {
	stages := []struct{ name, layer string }{
		{"simulate (player.Run)", "player"},
		{"abduct (abduction.Abduct)", "abduction"},
		{"counterfactual, all arms", "abduction"},
		{"truth replay, all arms", "abduction"},
		{"row (SessionResult.Row)", "engine"},
	}
	total := make([]float64, len(stages))
	for i, spec := range corpus {
		sess := l.rec.begin(l.sp, "bench", "session "+spec.ID)
		timed := func(stage int, fn func() error) error {
			sp := l.rec.begin(sess, stages[stage].layer, stages[stage].name)
			t0 := time.Now()
			err := fn()
			total[stage] += time.Since(t0).Seconds()
			sp.finish()
			return err
		}
		var (
			log      *player.SessionLog
			settingA player.Metrics
			abd      *abduction.Abduction
			outcomes []engine.ArmOutcome
		)
		err := timed(0, func() (err error) {
			log, settingA, err = simulate(spec, spec.NewABR())
			return err
		})
		if err != nil {
			return err
		}
		err = timed(1, func() (err error) {
			abd, err = abduction.Abduct(log, abduction.Config{NumSamples: 5, Seed: l.run.seed + 1 + int64(i)*101, Scratch: sc})
			return err
		})
		if err != nil {
			return err
		}
		for _, arm := range arms {
			var out *abduction.CounterfactualOutcome
			if err := timed(2, func() (err error) {
				out, err = abd.Counterfactual(arm.Setting)
				return err
			}); err != nil {
				return err
			}
			oc := engine.ArmOutcome{Name: arm.Name, Baseline: out.Baseline, Samples: out.Samples, HasTruth: true}
			if err := timed(3, func() (err error) {
				oc.Truth, err = abduction.Replay(spec.Trace, arm.Setting)
				return err
			}); err != nil {
				return err
			}
			outcomes = append(outcomes, oc)
		}
		_ = timed(4, func() error {
			_ = engine.SessionResult{Index: i, ID: spec.ID, Scenario: spec.Scenario, Log: log, SettingA: settingA, Arms: outcomes}.Row()
			return nil
		})
		sess.finish()
	}

	// The same sessions through the engine, one worker.
	sp := l.rec.begin(l.sp, "engine", "Run (1 worker)")
	res, err := engine.Run(context.Background(), engine.Config{Workers: 1, Samples: 5, Seed: l.run.seed}, corpus, arms)
	sp.finish()
	if err != nil {
		return err
	}
	n := float64(len(corpus))
	var stepwise float64
	for i, st := range stages {
		stepwise += total[i]
		l.budget = append(l.budget, budgetRow{Stage: st.name, Layer: st.layer, Ms: total[i] / n * 1e3})
	}
	l.budget = append(l.budget,
		budgetRow{Stage: "stepwise total", Ms: stepwise / n * 1e3},
		budgetRow{Stage: "engine.Run, 1 worker", Layer: "engine", Ms: res.Elapsed.Seconds() / n * 1e3})
	l.set("engine.attributed_share", stepwise/res.Elapsed.Seconds(), "ratio")
	return nil
}

// engine times one session through engine.Run, its allocation cost,
// how throughput scales with workers, where a campaign's stage time
// goes (from the facade's public telemetry) and the partial
// aggregates.
func (l *ledger) engine() error {
	ctx := context.Background()
	corpus, arms, err := l.sampleCorpus()
	if err != nil {
		return err
	}
	one := engine.Config{Workers: 1, Samples: 5, Seed: l.run.seed}
	l.timed("engine.session_ms", "ms", "engine", "Run one session", l.calls, 1, func(i int) error {
		k := i % len(corpus)
		_, err := engine.Run(ctx, one, corpus[k:k+1], arms)
		return err
	})
	c, b := l.allocs(1, func(int) error {
		_, err := engine.Run(ctx, one, corpus, arms)
		return err
	})
	l.set("engine.allocs_per_session", c/float64(len(corpus)), "count")
	l.set("engine.bytes_per_session", b/float64(len(corpus)), "B")

	// Throughput at r.workers over throughput at one worker, alternating.
	many := one
	many.Workers = l.run.workers
	wall := map[int][]float64{}
	for i := 0; i < 3; i++ {
		for _, cfg := range []engine.Config{one, many} {
			s := l.rec.begin(l.sp, "engine", fmt.Sprintf("Run %d workers", cfg.Workers))
			res, err := engine.Run(ctx, cfg, corpus, arms)
			s.finish()
			if err != nil {
				return err
			}
			wall[cfg.Workers] = append(wall[cfg.Workers], res.Elapsed.Seconds())
		}
	}
	l.set("engine.worker_scaling", median(wall[1])/median(wall[many.Workers]), "ratio")

	// Stage shares of a campaign at r.workers, from Campaign.Telemetry.
	camp, err := veritas.NewCampaign(whatifOptions(l.run, l.run.seed, l.run.sz.ledgerSeries/len(scenarios), l.run.workers, "")...)
	if err != nil {
		return err
	}
	s := l.rec.begin(l.sp, "veritas", "Campaign.Run")
	t0 := time.Now()
	_, err = camp.Run(ctx)
	elapsed := time.Since(t0).Seconds()
	s.finish()
	if err != nil {
		return err
	}
	snap := camp.Telemetry()
	var sum float64
	for _, stage := range []string{"simulate", "abduct", "replay", "predict"} {
		h := snap.Histograms[fmt.Sprintf("veritas_engine_stage_seconds{stage=%q}", stage)]
		share := h.Sum / (float64(l.run.workers) * elapsed)
		sum += share
		l.set("engine.stage_"+stage+"_share", share, "ratio")
	}
	l.set("engine.overhead_share", 1-sum, "ratio")
	l.set("engine.emission_cache_hit_ratio", ratio(snap.Counters["veritas_engine_emission_cache_hits_total"], snap.Counters["veritas_engine_emission_cache_misses_total"]), "ratio")
	l.set("engine.power_cache_hit_ratio", ratio(snap.Counters["veritas_engine_power_cache_hits_total"], snap.Counters["veritas_engine_power_cache_misses_total"]), "ratio")

	// Partial aggregates over the store workloads' rows.
	rows, err := l.rows(l.run.sz.ledgerRows)
	if err != nil {
		return err
	}
	var p *engine.Partials
	l.timed("engine.partials_fold_us_per_row", "us", "engine", "Partials.FoldRow × rows", l.heavy, len(rows), func(int) error {
		p = engine.NewPartials()
		for i, row := range rows {
			p.FoldRow(row, uint64(i+1))
		}
		return nil
	})
	l.timed("engine.partials_report_us", "us", "engine", "Partials.Report", l.heavy, 1, func(int) error {
		p.Report("")
		return nil
	})
	return nil
}

// rows generates n synthetic rows the way the store workloads do.
func (l *ledger) rows(n int) ([]veritas.FleetRow, error) {
	base, err := realRows(l.run.seed, l.run.sz.seedSessions, l.run.sz.seedChunks, l.run.workers)
	if err != nil {
		return nil, err
	}
	return synthRows(base, n, l.run.seed), nil
}

// storeLayer times the corpus store's public operations on ledgerRows
// synthetic rows: the write path, the four ways a store is opened, the
// shard pipeline, the watch tail and the live tier's combine.
func (l *ledger) storeLayer() error {
	rows, err := l.rows(l.run.sz.ledgerRows)
	if err != nil {
		return err
	}
	root := filepath.Join(l.run.dir, "ledger-store")
	defer os.RemoveAll(root)
	batch := max(len(rows)/l.calls, 1)
	batches := len(rows) / batch
	rows = rows[:batches*batch]

	// Write path: batches of appends, a Sync after each.
	main := filepath.Join(root, "main")
	st, err := store.Create(main, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	l.timed("store.append_us_per_row", "us", "store", "Append × batch", batches, batch, func(i int) error {
		for _, row := range rows[i*batch : (i+1)*batch] {
			if err := st.Append(row); err != nil {
				return err
			}
		}
		return nil
	})
	var syncNs []float64
	for i := 0; i < l.calls; i++ {
		if err := st.Append(rows[i%len(rows)]); err != nil { // something to flush
			return err
		}
		s := l.rec.begin(l.sp, "store", "Sync")
		t0 := time.Now()
		err := st.Sync()
		syncNs = append(syncNs, float64(time.Since(t0).Nanoseconds()))
		s.finish()
		if err != nil {
			return err
		}
	}
	l.set("store.sync_ms", median(syncNs)/1e6, "ms")
	if _, err := st.Partials(); err != nil { // so that Close snapshots them
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	var segBytes int64
	segs, _ := filepath.Glob(filepath.Join(main, "*.vseg"))
	for _, f := range segs {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		segBytes += fi.Size()
	}
	l.set("store.bytes_per_row", float64(segBytes)/float64(len(rows)+l.calls), "B")

	// Opening: from sidecars and snapshot; then, for a copy that has
	// only the segments, by frame scan and rebuild.
	bare := filepath.Join(root, "bare")
	if err := os.MkdirAll(bare, 0o755); err != nil {
		return err
	}
	for _, f := range segs {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(bare, filepath.Base(f)), b, 0o644); err != nil {
			return err
		}
	}
	open := func(dir string) func(int) error {
		return func(int) error {
			st, err := store.Open(dir, store.Options{ReadOnly: true})
			if err != nil {
				return err
			}
			return st.Close()
		}
	}
	l.timed("store.open_sidecar_ms", "ms", "store", "Open from sidecars", l.calls, 1, open(main))
	l.timed("store.open_scan_ms", "ms", "store", "Open by frame scan", l.heavy, 1, open(bare))
	for _, v := range []struct{ name, call, dir string }{
		{"store.partials_restore_ms", "Partials restore from snapshot", main},
		{"store.partials_rebuild_ms", "Partials rebuild from rows", bare},
	} {
		var durs []float64
		for i := 0; i < l.heavy; i++ {
			ro, err := store.Open(v.dir, store.Options{ReadOnly: true})
			if err != nil {
				return err
			}
			s := l.rec.begin(l.sp, "store", v.call)
			t0 := time.Now()
			_, err = ro.Partials()
			durs = append(durs, float64(time.Since(t0).Nanoseconds()))
			s.finish()
			ro.Close()
			if err != nil {
				return err
			}
		}
		l.set(v.name, median(durs)/1e6, "ms")
	}

	// Reads.
	ro, err := store.Open(main, store.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer ro.Close()
	l.timed("store.get_us", "us", "store", "Get", l.calls*10, 1, func(i int) error {
		_, ok, err := ro.Get(rows[(i*7919)%len(rows)].ID)
		if err == nil && !ok {
			err = fmt.Errorf("row missing")
		}
		return err
	})
	l.timed("store.scan_us_per_row", "us", "store", "Scan", l.heavy, len(rows)+l.calls, func(int) error {
		return ro.Scan(func(veritas.FleetRow) error { return nil })
	})

	// Shard pipeline: the corpus-maint stages, one at a time.
	shards := make([]string, maintShards)
	parts := make([][]veritas.FleetRow, maintShards)
	for g, row := range rows {
		parts[shardOf(g)] = append(parts[shardOf(g)], row)
	}
	for i := range shards {
		shards[i] = filepath.Join(root, "shards", fmt.Sprintf("shard-%d", i))
		if err := buildStore(shards[i], parts[i], 32); err != nil {
			return err
		}
		if err := store.WriteShardMeta(shards[i], store.ShardMeta{Index: i, Count: maintShards}); err != nil {
			return err
		}
	}
	var shipped bytes.Buffer
	t := l.timed("", "", "store", "Ship", l.calls, 1, func(int) error {
		shipped.Reset()
		_, err := store.Ship(&shipped, shards[0])
		return err
	})
	mb := float64(shipped.Len()) / 1e6
	l.set("store.ship_mb_per_s", mb/(t/1e9), "MB/s")
	t = l.timed("", "", "store", "Receive", l.calls, 1, func(i int) error {
		_, err := store.Receive(bytes.NewReader(shipped.Bytes()), filepath.Join(root, "recv", fmt.Sprint(i)))
		return err
	})
	l.set("store.receive_mb_per_s", mb/(t/1e9), "MB/s")
	l.timed("store.verify_us_per_row", "us", "store", "VerifyShard", l.heavy, len(parts[0]), func(int) error {
		_, err := store.VerifyShard(shards[0], 0, maintShards, nil)
		return err
	})
	l.timed("store.fold_us_per_row", "us", "store", "Fold", l.heavy, len(rows), func(i int) error {
		_, err := store.Fold(filepath.Join(root, "folded", fmt.Sprint(i)), store.Options{}, shards...)
		return err
	})

	// Watch tail: a writer appends a batch, the watcher picks it up.
	live := filepath.Join(root, "live")
	writer, err := store.Create(live, store.Options{})
	if err != nil {
		return err
	}
	defer writer.Close()
	watch, err := store.OpenWatch(live, store.Options{})
	if err != nil {
		return err
	}
	defer watch.Close()
	if _, err := watch.Partials(); err != nil { // refreshes then fold, as under a server
		return err
	}
	var refreshNs []float64
	for i := 0; i < batches; i++ {
		if err := appendRows(writer, rows[i*batch:(i+1)*batch], batch); err != nil {
			return err
		}
		s := l.rec.begin(l.sp, "store", "Refresh × batch")
		t0 := time.Now()
		added, err := watch.Refresh()
		refreshNs = append(refreshNs, float64(time.Since(t0).Nanoseconds())/float64(batch))
		s.finish()
		if err != nil {
			return err
		}
		if added != batch {
			return fmt.Errorf("refresh picked up %d rows, want %d", added, batch)
		}
	}
	l.set("store.refresh_us_per_row", median(refreshNs)/1e3, "us")
	l.timed("store.refresh_idle_us", "us", "store", "Refresh idle", l.calls, 1, func(int) error {
		_, err := watch.Refresh()
		return err
	})

	// The live tier's cold combine over the shard stores.
	l.timed("serve.live_combine_ms", "ms", "serve", "NewLive + first /v1/live/report", l.heavy, 1, func(int) error {
		h := serve.NewLive(filepath.Join(root, "shards"))
		defer h.Close()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/live/report", nil))
		if rw.Code != http.StatusOK {
			return fmt.Errorf("/v1/live/report: HTTP %d", rw.Code)
		}
		return nil
	})
	return nil
}

// serveLayer times every endpoint's handler directly (ServeHTTP into a
// recorder), split by cache state: a miss is the first call after a
// generation bump (an append) or, for session point reads, the first
// read of a row; a hit is the call after it.
func (l *ledger) serveLayer() error {
	rows, err := l.rows(l.run.sz.ledgerRows + l.calls*len(endpoints))
	if err != nil {
		return err
	}
	dir := filepath.Join(l.run.dir, "ledger-serve")
	defer os.RemoveAll(dir)
	st, err := store.Create(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	spare := rows[l.run.sz.ledgerRows:]
	rows = rows[:l.run.sz.ledgerRows]
	if err := appendRows(st, rows, len(rows)); err != nil {
		return err
	}
	h := serve.New(st)
	call := func(name, path string, hdr http.Header, want int) (float64, *httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		for k, v := range hdr {
			req.Header[k] = v
		}
		rw := httptest.NewRecorder()
		s := l.rec.begin(l.sp, "serve", name)
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		d := time.Since(t0)
		s.finish()
		if rw.Code != want {
			return 0, nil, fmt.Errorf("%s: HTTP %d, want %d: %.120s", path, rw.Code, want, rw.Body.String())
		}
		return float64(d.Nanoseconds()), rw, nil
	}
	arm := armNames()[0]
	paths := map[string]string{
		"report":      "/v1/report",
		"cdf":         "/v1/report/cdf?arm=" + arm,
		"series":      "/v1/report/series?arm=" + arm,
		"percentiles": "/v1/report/percentiles?arm=" + arm,
		"sessions":    "/v1/sessions",
		"scenarios":   "/v1/scenarios",
	}
	for _, ep := range endpoints {
		durs := map[string][]float64{}
		for i := 0; i < l.calls; i++ {
			path := paths[ep]
			if ep == "session" {
				path = "/v1/sessions/" + rows[(i*7919)%len(rows)].ID
			} else {
				if err := st.Append(spare[0]); err != nil { // generation bump
					return err
				}
				spare = spare[1:]
			}
			for _, state := range []string{"miss", "hit"} {
				d, _, err := call(ep+" "+state, path, nil, http.StatusOK)
				if err != nil {
					return err
				}
				durs[state] = append(durs[state], d)
			}
		}
		l.set("serve.handler_us."+ep+".miss", median(durs["miss"])/1e3, "us")
		l.set("serve.handler_us."+ep+".hit", median(durs["hit"])/1e3, "us")
	}
	_, rw, err := call("report", "/v1/report", nil, http.StatusOK)
	if err != nil {
		return err
	}
	etag := http.Header{"If-None-Match": {rw.Header().Get("ETag")}}
	var nm []float64
	for i := 0; i < l.calls; i++ {
		d, _, err := call("report not modified", "/v1/report", etag, http.StatusNotModified)
		if err != nil {
			return err
		}
		nm = append(nm, d)
	}
	l.set("serve.not_modified_us", median(nm)/1e3, "us")
	return nil
}

// observability prices the telemetry and tracing planes: the default
// campaign against one built WithoutTelemetry and one WithoutTracing,
// alternating.
func (l *ledger) observability() error {
	variants := map[string][]veritas.CampaignOption{
		"default":          nil,
		"WithoutTelemetry": {veritas.WithoutTelemetry()},
		"WithoutTracing":   {veritas.WithoutTracing()},
	}
	wall := make(map[string][]float64)
	for i := 0; i < 3; i++ {
		for _, name := range []string{"default", "WithoutTelemetry", "WithoutTracing"} {
			opts := []veritas.CampaignOption{
				veritas.WithScenarios(scenarios...), veritas.WithSessions(l.run.sz.ledgerSeries / len(scenarios)), veritas.WithChunks(l.run.sz.campaignChunks),
				veritas.WithMatrix(matrixABR, matrixBuf), veritas.WithSamples(5), veritas.WithWorkers(l.run.workers), veritas.WithSeed(l.run.seed),
			}
			c, err := veritas.NewCampaign(append(opts, variants[name]...)...)
			if err != nil {
				return err
			}
			s := l.rec.begin(l.sp, "veritas", "Campaign.Run "+name)
			t0 := time.Now()
			_, err = c.Run(context.Background())
			wall[name] = append(wall[name], time.Since(t0).Seconds())
			s.finish()
			if err != nil {
				return err
			}
		}
	}
	base := median(wall["default"])
	l.set("telemetry.overhead_share", 1-median(wall["WithoutTelemetry"])/base, "ratio")
	l.set("tracing.overhead_share", 1-median(wall["WithoutTracing"])/base, "ratio")
	return nil
}

// shortRuns takes the numbers that only exist over a real socket from
// short runs of the two serving workloads.
func (l *ledger) shortRuns() error {
	q, err := l.run.sub("query-read (short)", min(l.run.budget, 2*time.Second), l.rec, l.sp, runQueryRead)
	if err != nil {
		return err
	}
	l.set("bench.generator_lateness_p99_ms", q.info["bench.generator_lateness_p99_ms"], "ms")
	l.set("serve.row_cache_hit_ratio", q.info["serve.row_cache_hit_ratio"], "ratio")
	// What the socket, net/http and the client add: the closed-loop
	// request p50 over the mix-weighted handler p50.
	var handler, weights float64
	for ep, w := range readMix {
		handler += float64(w) * l.m["serve.handler_us."+ep+".hit"].Value
		weights += float64(w)
	}
	l.set("serve.http_overhead_us", q.info["closed_loop_p50_ms"]*1e3-handler/weights, "us")

	g, err := l.run.sub("live-ingest (short)", min(l.run.budget, time.Second), l.rec, l.sp, runLiveIngest)
	if err != nil {
		return err
	}
	l.set("e2e.catchup_rows_per_s", g.info["e2e.catchup_rows_per_s"], "1/s")
	// The tier serves endpoint classes of very different cost: the
	// end-to-end latency_p50_ms weighs these together, here each is
	// named.
	for _, ep := range endpoints {
		l.set("e2e.query-read.p50_ms."+ep, percentile(q.lat[ep], 50), "ms")
		if liveMix[ep] > 0 {
			l.set("e2e.live-ingest.p50_ms."+ep, percentile(g.lat[ep], 50), "ms")
		}
	}
	return nil
}
