package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veritas/internal/abduction"
	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/video"
)

// testCorpus builds a small mixed-scenario corpus that keeps unit-test
// runtime low while exercising every regime.
func testCorpus(t testing.TB, sessions int) []SessionSpec {
	t.Helper()
	corpus, err := BuildCorpus(CorpusConfig{
		SessionsPer: sessions,
		NumChunks:   30,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func testArms(chunks int) []Arm {
	vcfg := video.DefaultConfig(1)
	vcfg.NumChunks = chunks
	vid := video.MustSynthesize(vcfg)
	return []Arm{
		{
			Name: "bba-5s",
			Setting: abduction.Setting{
				Video:     vid,
				NewABR:    func() abr.Algorithm { return abr.NewBBA() },
				BufferCap: 5,
				Net:       netem.DefaultConfig(),
			},
		},
		{
			Name: "mpc-30s",
			Setting: abduction.Setting{
				Video:     vid,
				NewABR:    func() abr.Algorithm { return abr.NewMPC() },
				BufferCap: 30,
				Net:       netem.DefaultConfig(),
			},
		},
	}
}

// resultRows reduces a run's retained sessions to their rows, in corpus
// order, skipping the empty slots of skipped or out-of-shard sessions.
func resultRows(res *Result) []SessionRow {
	var rows []SessionRow
	for _, s := range res.Sessions {
		if s.ID != "" {
			rows = append(rows, s.Row())
		}
	}
	return rows
}

// settingASeries returns metric f of the simulated (Setting A)
// sessions, skipping rows built from pre-recorded logs.
func settingASeries(rows []SessionRow, f abduction.MetricFn) []float64 {
	var out []float64
	for _, s := range rows {
		if s.Simulated {
			out = append(out, f(s.SettingA))
		}
	}
	return out
}

// fingerprint serializes everything aggregate-visible about a run,
// excluding wall-clock fields, so runs can be compared byte-for-byte.
// It is rebuilt from the retained sessions' rows with the oracle's
// helpers — covering what no report carries (Setting A, the mid
// estimator, coverage at an arbitrary slack) — plus the report the
// run's own Partials builds.
func fingerprint(res *Result) string {
	var b strings.Builder
	metrics := []struct {
		label string
		fn    abduction.MetricFn
	}{
		{"ssim", abduction.MetricSSIM},
		{"rebuf", abduction.MetricRebufRatio},
		{"bitrate", abduction.MetricAvgBitrate},
	}
	rows := resultRows(res)
	for _, arm := range armNamesOf(rows) {
		for _, m := range metrics {
			for _, est := range []ArmEstimator{EstTruth, EstBaseline, EstVeritasLow, EstVeritasHigh, EstVeritasMid} {
				fmt.Fprintf(&b, "%s/%s/%s %v\n", arm, m.label, est, seriesOf(rows, arm, est, m.fn))
			}
			fmt.Fprintf(&b, "%s/%s coverage %v\n", arm, m.label, coverageOf(rows, arm, m.fn, 0.01))
		}
	}
	fmt.Fprintf(&b, "settingA %v\n", settingASeries(rows, abduction.MetricSSIM))
	fmt.Fprintf(&b, "predictions %v\n", predictionsOf(rows))
	for _, s := range res.Sessions {
		fmt.Fprintf(&b, "%d %s %+v\n", s.Index, s.ID, s.SettingA)
	}
	rep, err := json.Marshal(res.Partials.Report(""))
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "report %s\n", rep)
	return b.String()
}

// TestDeterministicAcrossWorkerCounts is the engine's core contract:
// the same corpus and seed produce byte-identical aggregates whether
// the fleet runs on 1, 2 or 7 workers.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	corpus := testCorpus(t, 2) // 2 per scenario × 4 scenarios = 8 sessions
	arms := testArms(30)
	var want string
	for _, workers := range []int{1, 2, 7} {
		res, err := Run(context.Background(), Config{Workers: workers, Samples: 3, Seed: 1}, corpus, arms)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Workers != workers {
			t.Errorf("res.Workers = %d, want %d", res.Workers, workers)
		}
		got := fingerprint(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d produced different aggregates", workers)
		}
	}
}

// TestArenasSurviveRun: a Run gives its worker arenas back to the pool,
// and the next Run takes them already sized, so it allocates no
// inference slab: against a Run on a fresh arena, the Run after it
// allocates at least the α slab (N×S floats, S ≥ 21 on the default
// grid) and the K×N sample slab less. The collector is off, so the pool
// keeps what it is given and two collections empty it; the race
// detector drops a quarter of what a sync.Pool is given at random, so
// the warm side is the least of ten Runs.
func TestArenasSurviveRun(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	corpus, err := BuildCorpus(CorpusConfig{SessionsPer: 1, NumChunks: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	corpus = corpus[:1]
	arms := testArms(200)[:1]
	const k = 5
	cfg := Config{Workers: 1, Samples: k, Seed: 1}
	var res *Result
	run := func() (b uint64) {
		b, res = allocatedByRun(t, cfg, corpus, arms)
		return b
	}

	run() // warms the shared powers and jitter
	runtime.GC()
	runtime.GC() // empties the pool
	cold := run()
	warm := run()
	for i := 0; i < 9; i++ {
		warm = min(warm, run())
	}
	chunks := len(res.Sessions[0].Log.Records)
	slabs := uint64(8 * (chunks*21 + k*chunks))
	if cold < warm+slabs {
		t.Errorf("a Run on a fresh arena allocated %d B, a Run after it %d B: %d B saved, want at least the inference slabs' %d B", cold, warm, int64(cold)-int64(warm), slabs)
	}
}

// allocatedByRun runs the corpus and returns the bytes the Run
// allocated, with its result.
func allocatedByRun(t *testing.T, cfg Config, corpus []SessionSpec, arms []Arm) (uint64, *Result) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), cfg, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, res
}

// TestBytesPerSession bounds what a warm Run of armed full-clip
// sessions allocates per session — the ledger's
// engine.bytes_per_session — at 60 KB: one session per scenario, the
// default matrix (bba and bola at 5 s and 30 s), K = 5, one worker. As
// in TestArenasSurviveRun the collector is off and the figure is the
// least of several Runs, since the race detector drops pooled arenas at
// random.
func TestBytesPerSession(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cc := CorpusConfig{SessionsPer: 1, Seed: 1}
	corpus, err := BuildCorpus(cc)
	if err != nil {
		t.Fatal(err)
	}
	arms, err := BuildMatrix(cc, []string{"bba", "bola"}, []float64{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, Samples: 5, Seed: 1}
	allocatedByRun(t, cfg, corpus, arms) // warms the arenas, the shared powers and the jitter
	least, _ := allocatedByRun(t, cfg, corpus, arms)
	for i := 0; i < 4; i++ {
		b, _ := allocatedByRun(t, cfg, corpus, arms)
		least = min(least, b)
	}
	const bound = 60 << 10
	if per := least / uint64(len(corpus)); per > bound {
		t.Errorf("a warm Run allocated %d B per session over %d sessions, want at most %d B", per, len(corpus), bound)
	}
}

// TestArenaDoesNotChangeResults pins that the per-worker session arena
// is purely an allocation optimization: a run that recycles arenas
// across sessions (the default) and a run that allocates fresh buffers
// per session (KeepAbductions) produce byte-identical results. One
// worker forces every session of the corpus through the same arena —
// the worst case for cross-session bleed — and the sessions' chunk
// counts and the arms' clip lengths vary, so the generator, the
// connection, the throughput history and the trace slabs are each
// grown, shrunk and left dirty from one session to the next.
func TestArenaDoesNotChangeResults(t *testing.T) {
	corpus := testCorpus(t, 3)
	for i := range corpus {
		corpus[i].MaxChunks = []int{30, 7, 22, 1, 30, 12, 3}[i%7]
	}
	arms := testArms(30)
	for _, a := range testArms(12) {
		a.Name += "-12"
		arms = append(arms, a)
	}
	arena, err := Run(context.Background(), Config{Workers: 1, Samples: 3, Seed: 1}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(context.Background(), Config{Workers: 1, Samples: 3, Seed: 1, KeepAbductions: true}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(arena) != fingerprint(fresh) {
		t.Error("arena reuse changed inference results")
	}
	for i, got := range arena.Sessions {
		want := fresh.Sessions[i]
		if got.SettingA != want.SettingA || !reflect.DeepEqual(got.Log, want.Log) || !reflect.DeepEqual(got.Arms, want.Arms) {
			t.Fatalf("session %d (%d chunks): the arena run's log, Setting A or arms differ from the fresh run's", i, corpus[i].MaxChunks)
		}
	}
	// Retained abductions must own their buffers: sessions on the same
	// worker must not alias one shared arena, and each one still answers
	// its own session's queries once every later session has run.
	for i, s := range fresh.Sessions {
		a := s.Abd
		if a == nil {
			t.Fatal("KeepAbductions did not retain abductions")
		}
		if i > 0 {
			b := fresh.Sessions[i-1].Abd
			if &a.SampledPaths[0][0] == &b.SampledPaths[0][0] || &a.Observations[0] == &b.Observations[0] {
				t.Fatal("retained abductions alias the same sampled path or observation buffer")
			}
			if ta, tb := a.SampleTraces()[0], b.SampleTraces()[0]; ta == tb {
				t.Fatal("retained abductions share a sample trace")
			}
		}
		acfg := a.ConfigUsed()
		acfg.Scratch = nil
		own, err := abduction.Abduct(s.Log, acfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, tr := range a.SampleTraces() {
			if !reflect.DeepEqual(tr.Points(), own.SampleTraces()[k].Points()) {
				t.Fatalf("session %d: retained sample trace %d changed after later sessions ran", i, k)
			}
		}
		for k, arm := range arms {
			out, err := a.Counterfactual(arm.Setting)
			if err != nil {
				t.Fatalf("session %d: a retained abduction's Counterfactual: %v", i, err)
			}
			if out.Baseline != s.Arms[k].Baseline || !reflect.DeepEqual(out.Samples, s.Arms[k].Samples) {
				t.Fatalf("session %d: a retained abduction replays arm %s differently after the run", i, arm.Name)
			}
		}
	}
}

// TestCancellation covers both pre-cancelled contexts and mid-run
// cancellation via the streaming callback.
func TestCancellation(t *testing.T) {
	corpus := testCorpus(t, 2)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(pre, Config{Workers: 2}, corpus, nil); err == nil {
		t.Error("pre-cancelled context should error")
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	var n atomic.Int64
	cfg := Config{
		Workers: 2,
		OnResult: func(SessionResult) {
			if n.Add(1) == 1 {
				cancelMid()
			}
		},
	}
	if _, err := Run(ctx, cfg, corpus, nil); err != context.Canceled {
		t.Errorf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if got := n.Load(); got >= int64(len(corpus)) {
		t.Errorf("cancellation did not stop the fleet: %d/%d sessions ran", got, len(corpus))
	}
}

// TestRunReportsLowestFailedSession: with two failing sessions, Run
// reports the lower index's error at every worker count, even when the
// higher one fails first.
func TestRunReportsLowestFailedSession(t *testing.T) {
	corpus := testCorpus(t, 2)
	for i := range corpus {
		corpus[i].SimulateOnly = true
	}
	lo, hi := corpus[2].ID, corpus[5].ID
	var want string
	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers, Sink: sinkFunc(func(r SessionResult) error {
			switch r.ID {
			case lo:
				time.Sleep(20 * time.Millisecond) // the higher failure lands first
				return fmt.Errorf("refused %s", r.ID)
			case hi:
				return fmt.Errorf("refused %s", r.ID)
			}
			return nil
		})}
		_, err := Run(context.Background(), cfg, corpus, nil)
		if err == nil || !strings.Contains(err.Error(), "refused "+lo) {
			t.Fatalf("workers=%d: err = %v, want session %s's", workers, err, lo)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: err = %q, workers=1 gave %q", workers, err, want)
		}
	}
}

func TestSimulateOnlyAndPrerecordedLogs(t *testing.T) {
	corpus := testCorpus(t, 1)[:2]
	for i := range corpus {
		corpus[i].SimulateOnly = true
	}
	res, err := Run(context.Background(), Config{Workers: 2}, corpus, testArms(30))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sessions {
		if s.Log == nil {
			t.Fatal("simulate-only session missing log")
		}
		if len(s.Arms) != 0 || s.Abd != nil {
			t.Error("simulate-only session ran queries")
		}
	}

	// Feed the recorded logs back as pre-recorded specs.
	specs := make([]SessionSpec, len(res.Sessions))
	for i, s := range res.Sessions {
		specs[i] = SessionSpec{ID: s.ID, Log: s.Log}
	}
	res2, err := Run(context.Background(), Config{Workers: 2, Samples: 2, KeepAbductions: true}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res2.Sessions {
		if s.Abd == nil {
			t.Error("KeepAbductions did not retain the abduction")
		}
	}
	if got := settingASeries(resultRows(res2), abduction.MetricSSIM); len(got) != 0 {
		t.Errorf("pre-recorded logs should have no Setting-A metrics, got %d", len(got))
	}
}

func TestPredictQueries(t *testing.T) {
	corpus := testCorpus(t, 1)[:1]
	// First simulate to learn the log, then ask for next-chunk times.
	sim := corpus[0]
	sim.SimulateOnly = true
	res, err := Run(context.Background(), Config{}, []SessionSpec{sim}, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := res.Sessions[0].Log
	last := log.Records[len(log.Records)-1]
	st := last.TCP
	st.LastSendGap = 2
	spec := corpus[0]
	spec.Predict = []PredictQuery{
		{StartSecs: last.End + 2, TCP: st, SizeBytes: 1e6},
		{StartSecs: last.End + 2, TCP: st, SizeBytes: 4e6},
	}
	res2, err := Run(context.Background(), Config{Samples: 2}, []SessionSpec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds := res2.Sessions[0].Predictions
	if len(preds) != 2 {
		t.Fatalf("got %d predictions, want 2", len(preds))
	}
	if preds[0] <= 0 || preds[1] <= preds[0] {
		t.Errorf("predictions %v: want positive and increasing with size", preds)
	}
}

func TestRunInputValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, nil, nil); err == nil {
		t.Error("empty corpus should error")
	}
	if _, err := Run(context.Background(), Config{}, []SessionSpec{{}}, nil); err == nil {
		t.Error("spec without trace or log should error")
	}
	if _, err := Run(context.Background(), Config{}, testCorpus(t, 1)[:1], []Arm{{Name: "broken"}}); err == nil {
		t.Error("invalid arm setting should error")
	}
	// Everything downstream keys by effective session ID (partials, the
	// store, the resume set), so two sessions sharing one are refused up
	// front — whether the ID is spelled out or the index-derived default.
	tr := testCorpus(t, 1)[0].Trace
	for _, c := range []struct {
		name   string
		corpus []SessionSpec
		want   string
	}{
		{"explicit", []SessionSpec{{ID: "a", Trace: tr}, {ID: "b", Trace: tr}, {ID: "a", Trace: tr}},
			`engine: sessions 0 and 2 share ID "a"`},
		{"default-collision", []SessionSpec{{ID: "session-1", Trace: tr}, {Trace: tr}},
			`engine: sessions 0 and 1 share ID "session-1"`},
	} {
		_, err := Run(context.Background(), Config{Workers: 1, Samples: 1}, c.corpus, nil)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.name, err, c.want)
		}
	}
}

// TestEstimatorHookReachesInference pins that a spec's throughput-model
// hook (hmm.Config.Estimator) passes through the engine untouched: an
// identity estimator — observed throughput is the capacity itself —
// must yield a different posterior than the paper's TCP model f.
func TestEstimatorHookReachesInference(t *testing.T) {
	corpus := testCorpus(t, 1)[:1]
	cfg := Config{Workers: 1, Samples: 2, Seed: 1, KeepAbductions: true}
	paper, err := Run(context.Background(), cfg, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	corpus[0].Abduct.HMM.Estimator = func(gtbwMbps float64, _ tcp.State, _ float64) float64 { return gtbwMbps }
	identity, err := Run(context.Background(), cfg, corpus, nil)
	if err != nil {
		t.Fatalf("spec with an estimator hook: %v", err)
	}
	if reflect.DeepEqual(paper.Sessions[0].Abd.MostLikelyTrace(), identity.Sessions[0].Abd.MostLikelyTrace()) {
		t.Error("identity estimator left the most likely trace unchanged: the hook never reached inference")
	}
}

// TestRunFailsOnStalledSample pins today's latent stall end to end: an
// estimator under which only the grid's 0 Mbps state explains the log
// puts every sampled path, tail included, in that state, so each sample
// replay can never finish, and the whole run fails with the arm's error,
// which wraps netem.ErrStalled.
func TestRunFailsOnStalledSample(t *testing.T) {
	corpus := testCorpus(t, 1)[:1]
	corpus[0].Abduct.HMM.Estimator = func(gtbwMbps float64, _ tcp.State, _ float64) float64 {
		if gtbwMbps == 0 {
			return 0
		}
		return 1e6
	}
	_, err := Run(context.Background(), Config{Workers: 1, Samples: 2, Seed: 1}, corpus, testArms(30))
	if !errors.Is(err, netem.ErrStalled) || !strings.Contains(err.Error(), "arm bba-5s") {
		t.Fatalf("err = %v, want arm bba-5s's, wrapping netem.ErrStalled", err)
	}
}

func TestBuildCorpus(t *testing.T) {
	corpus, err := BuildCorpus(CorpusConfig{SessionsPer: 3, NumChunks: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 3*len(Scenarios()) {
		t.Fatalf("corpus has %d sessions, want %d", len(corpus), 3*len(Scenarios()))
	}
	seen := map[string]bool{}
	for _, s := range corpus {
		if s.Trace == nil || s.Video == nil || s.Net == nil {
			t.Fatalf("incomplete spec %q", s.ID)
		}
		seen[strings.SplitN(s.ID, "-", 2)[0]] = true
	}
	for _, sc := range Scenarios() {
		if !seen[sc] {
			t.Errorf("scenario %s missing from corpus", sc)
		}
	}
	if _, err := BuildCorpus(CorpusConfig{Scenarios: []string{"dialup"}}); err == nil {
		t.Error("unknown scenario should error")
	}
}

// TestCorpusClipIsTheDefaultClip: a corpus of the default clip or a
// prefix of it synthesises nothing — Setting A and every arm stream one
// shared clip — while a longer clip is still synthesised.
func TestCorpusClipIsTheDefaultClip(t *testing.T) {
	for _, n := range []int{0, 1, 60, 300, 420} {
		ccfg := CorpusConfig{SessionsPer: 1, NumChunks: n, Scenarios: []string{"square"}}
		corpus, err := BuildCorpus(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		arms, err := BuildMatrix(ccfg, []string{"bba"}, []float64{5})
		if err != nil {
			t.Fatal(err)
		}
		want := n
		if n == 0 {
			want = video.Default().NumChunks()
		}
		a, b := corpus[0].Video, arms[0].Setting.Video
		if a.NumChunks() != want || b.NumChunks() != want {
			t.Errorf("NumChunks %d: corpus clip %d chunks, arm clip %d, want %d", n, a.NumChunks(), b.NumChunks(), want)
		}
		// A prefix view is one allocation; a synthesis is two rows per chunk.
		if allocs := testing.AllocsPerRun(5, func() { ccfg.video() }); (allocs <= 1) != (n <= 300) {
			t.Errorf("NumChunks %d: the corpus clip costs %v allocations", n, allocs)
		}
		if a.Size(n/2, 3) != video.Default().Size(n/2, 3) || b.SSIM(n/2, 3) != video.Default().SSIM(n/2, 3) {
			t.Errorf("NumChunks %d: the clips are not the default clip's chunks", n)
		}
		if n == 0 || n == 300 {
			if a != video.Default() {
				t.Errorf("NumChunks %d: not the process's default clip", n)
			}
		}
	}
}

// TestBuildMatrixRefusesNonFiniteBuffers: NaN passes "buf <= 0".
func TestBuildMatrixRefusesNonFiniteBuffers(t *testing.T) {
	for _, buf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5} {
		if _, err := BuildMatrix(CorpusConfig{NumChunks: 10}, []string{"bba"}, []float64{5, buf}); err == nil || !strings.Contains(err.Error(), "matrix buffer") {
			t.Errorf("buffer %v: err = %v, want one naming the matrix buffer", buf, err)
		}
	}
}

func TestReportRenders(t *testing.T) {
	corpus := testCorpus(t, 1)
	res, err := Run(context.Background(), Config{Samples: 2, Seed: 1}, corpus, testArms(30)[:1])
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fleet report", "arm: bba-5s", "SSIM", "transition-power cache", "sessions/sec", "coverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestSharedPowerAccounting checks the fleet-level transition-power
// cache stats: one lookup per abduced session, and sessions with equal
// capacity grids must share (hit) rather than recompute.
func TestSharedPowerAccounting(t *testing.T) {
	// Identical sessions per scenario → within a scenario the observed
	// max throughput (and so the grid) repeats across seeds often
	// enough that at least one hit must occur.
	corpus := testCorpus(t, 2)
	res, err := Run(context.Background(), Config{Workers: 2, Samples: 2, Seed: 1}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Powers.Hits + res.Powers.Misses(); got != uint64(len(corpus)) {
		t.Errorf("power-cache lookups = %d, want one per session (%d)", got, len(corpus))
	}
	if res.Powers.Hits == 0 {
		t.Error("no shared power-cache hits across a scenario-repeating corpus")
	}
}

// TestSkipLeavesIndicesStable pins the resume contract inside the
// engine: a skipped prefix must not shift the indices — and therefore
// the derived seeds — of the sessions that do run.
func TestSkipLeavesIndicesStable(t *testing.T) {
	corpus := testCorpus(t, 1) // 4 sessions
	full, err := Run(context.Background(), Config{Workers: 2, Samples: 2, Seed: 1}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{corpus[0].ID: true, corpus[2].ID: true}
	part, err := Run(context.Background(), Config{Workers: 2, Samples: 2, Seed: 1, Skip: skip}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if part.Executed != len(corpus)-2 {
		t.Errorf("Executed = %d, want %d", part.Executed, len(corpus)-2)
	}
	if got := part.Partials.Sessions(); got != len(corpus)-2 {
		t.Errorf("partials recorded %d sessions, want %d", got, len(corpus)-2)
	}
	for i, s := range part.Sessions {
		if skip[corpus[i].ID] {
			if s.ID != "" {
				t.Errorf("skipped session %d has a result", i)
			}
			continue
		}
		if s.Index != full.Sessions[i].Index || s.ID != full.Sessions[i].ID {
			t.Fatalf("session %d shifted: %s/%d vs %s/%d", i, s.ID, s.Index, full.Sessions[i].ID, full.Sessions[i].Index)
		}
		if s.SettingA != full.Sessions[i].SettingA {
			t.Errorf("session %s: SettingA differs between full and skipped runs", s.ID)
		}
	}
}

// TestOnProgressCounts pins the progress callback the dispatch
// supervisor streams out of shard workers: one call per completed
// session, distinct done values covering 1..executed, and a total that
// accounts for both the shard partition and the skip set.
func TestOnProgressCounts(t *testing.T) {
	corpus := testCorpus(t, 2) // 8 sessions
	var (
		mu     sync.Mutex
		seen   = map[int]bool{}
		totals = map[int]bool{}
	)
	skip := map[string]bool{corpus[1].ID: true}
	res, err := Run(context.Background(), Config{
		Workers:    3,
		Samples:    2,
		Seed:       1,
		ShardIndex: 1,
		ShardCount: 2,
		Skip:       skip,
		OnProgress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if seen[done] {
				t.Errorf("done value %d reported twice", done)
			}
			seen[done] = true
			totals[total] = true
		},
	}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1/2 of 8 sessions is indices {1,3,5,7}; index 1 is skipped.
	if res.Executed != 3 {
		t.Fatalf("Executed = %d, want 3", res.Executed)
	}
	if len(seen) != res.Executed {
		t.Errorf("progress called %d times, want %d", len(seen), res.Executed)
	}
	for d := 1; d <= res.Executed; d++ {
		if !seen[d] {
			t.Errorf("progress never reported done=%d", d)
		}
	}
	if len(totals) != 1 || !totals[res.Executed] {
		t.Errorf("progress totals = %v, want exactly {%d}", totals, res.Executed)
	}
}

// dropSink discards results; it only exists to flip the engine into
// streaming mode.
type dropSink struct{}

func (dropSink) Put(SessionResult) error { return nil }

// TestSinkBoundsRetention pins the streaming path's memory contract:
// with a sink, Result.Sessions must not pin session logs (the sink owns
// the full data).
func TestSinkBoundsRetention(t *testing.T) {
	corpus := testCorpus(t, 1)[:2]
	res, err := Run(context.Background(), Config{Workers: 2, Samples: 2, Seed: 1, Sink: dropSink{}}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sessions {
		if s.Log != nil || s.Abd != nil {
			t.Fatalf("session %s retained Log/Abd despite a sink", s.ID)
		}
		if s.ID == "" {
			t.Fatal("compact retention lost the session identity")
		}
	}
	for _, s := range res.Sessions {
		if s.SettingA == (player.Metrics{}) {
			t.Errorf("session %s lost its Setting-A metrics under a sink", s.ID)
		}
	}
	if got := res.Partials.Sessions(); got != 2 {
		t.Errorf("partials hold %d sessions under a sink, want 2", got)
	}
}

func TestStreamDeliversEveryRow(t *testing.T) {
	corpus := testCorpus(t, 1)
	arms := testArms(30)
	cfg := Config{Workers: 2, Samples: 2, Seed: 1}

	want, err := Run(context.Background(), cfg, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}

	rows, wait := Stream(context.Background(), cfg, corpus, arms)
	seen := make(map[string]SessionRow)
	for row := range rows {
		if _, dup := seen[row.ID]; dup {
			t.Errorf("row %s delivered twice", row.ID)
		}
		seen[row.ID] = row
	}
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(corpus) {
		t.Fatalf("streamed %d rows, want %d", len(seen), len(corpus))
	}
	if len(res.Sessions) != 0 {
		t.Errorf("Stream retained %d session results, want 0", len(res.Sessions))
	}
	// The streamed rows and partials match the plain Run.
	if got, want := res.Partials.Sessions(), want.Partials.Sessions(); got != want {
		t.Errorf("partials hold %d sessions, want %d", got, want)
	}
	for _, s := range want.Sessions {
		row, ok := seen[s.ID]
		if !ok {
			t.Errorf("session %s never streamed", s.ID)
			continue
		}
		if row.Index != s.Index || len(row.Arms) != len(s.Arms) {
			t.Errorf("row %s diverges from Run result", s.ID)
		}
	}
}

func TestStreamAbandonedConsumerCancels(t *testing.T) {
	corpus := testCorpus(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	rows, wait := Stream(ctx, Config{Workers: 2, Samples: 1, Seed: 1}, corpus, testArms(30))
	// Read one row, then walk away: cancellation must unblock the
	// workers parked on the unbuffered channel.
	<-rows
	cancel()
	if _, err := wait(); err == nil {
		t.Fatal("abandoned stream should surface the cancellation")
	}
}

func TestDiscardResults(t *testing.T) {
	corpus := testCorpus(t, 1)
	res, err := Run(context.Background(), Config{Workers: 2, Samples: 1, Seed: 1, DiscardResults: true}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 0 {
		t.Fatalf("DiscardResults retained %d sessions", len(res.Sessions))
	}
	if res.Partials.Sessions() != len(corpus) {
		t.Errorf("partials hold %d sessions, want %d", res.Partials.Sessions(), len(corpus))
	}
}

// TestShardPartitionEquivalence is the multi-process dispatch contract:
// n shard runs together execute every corpus session exactly once, and
// each in-shard session's row is byte-identical to the unsharded run's
// — the partition is by corpus index, so seeds never move.
func TestShardPartitionEquivalence(t *testing.T) {
	corpus := testCorpus(t, 2) // 8 sessions
	arms := testArms(30)[:1]
	full, err := Run(context.Background(), Config{Workers: 2, Samples: 2, Seed: 1}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	seen := make(map[string]int)
	total := 0
	for shard := 0; shard < n; shard++ {
		res, err := Run(context.Background(),
			Config{Workers: 2, Samples: 2, Seed: 1, ShardIndex: shard, ShardCount: n}, corpus, arms)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		total += res.Executed
		for idx, s := range res.Sessions {
			if idx%n != shard {
				if s.ID != "" {
					t.Errorf("shard %d executed out-of-shard session %d (%s)", shard, idx, s.ID)
				}
				continue
			}
			if s.ID == "" {
				t.Errorf("shard %d skipped in-shard session %d", shard, idx)
				continue
			}
			seen[s.ID]++
			want, err := json.Marshal(full.Sessions[idx].Row())
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(s.Row())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("shard %d session %d row differs from the unsharded run\nwant: %s\ngot:  %s",
					shard, idx, want, got)
			}
		}
	}
	if total != len(corpus) {
		t.Errorf("shards executed %d sessions in total, want %d", total, len(corpus))
	}
	if len(seen) != len(corpus) {
		t.Errorf("shards covered %d distinct sessions, want %d", len(seen), len(corpus))
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("session %s executed by %d shards", id, c)
		}
	}
}

func TestShardValidation(t *testing.T) {
	corpus := testCorpus(t, 1)
	for _, cfg := range []Config{
		{ShardCount: -1},
		{ShardCount: 3, ShardIndex: 3},
		{ShardCount: 3, ShardIndex: -1},
	} {
		if _, err := Run(context.Background(), cfg, corpus, nil); err == nil {
			t.Errorf("Config{ShardIndex: %d, ShardCount: %d} accepted", cfg.ShardIndex, cfg.ShardCount)
		}
	}
	// ShardCount 1 is the whole corpus.
	res, err := Run(context.Background(), Config{Workers: 2, Samples: 1, Seed: 1, ShardCount: 1}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != len(corpus) {
		t.Errorf("ShardCount=1 executed %d sessions, want %d", res.Executed, len(corpus))
	}
}
