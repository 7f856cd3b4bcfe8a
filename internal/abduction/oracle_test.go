package abduction

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// The differential oracles of PR 24: the code the once-per-abduction
// builder, the merge-pass BaselineTrace and the sort-free
// trace.FromSteps replaced, kept verbatim as what they are pinned to —
// and the replay they were pinned through, a player.Run per trace.

// fromStepsOracle is trace.FromSteps as it stood before PR 24: build the
// points, then let New copy, sort and validate them.
func fromStepsOracle(interval float64, mbps []float64) (*trace.Trace, error) {
	if interval <= 0 {
		return nil, errors.New("trace: interval must be positive")
	}
	if len(mbps) == 0 {
		return nil, errors.New("trace: need at least one step")
	}
	pts := make([]trace.Point, len(mbps))
	for i, v := range mbps {
		pts[i] = trace.Point{T: float64(i) * interval, Mbps: v}
	}
	return trace.New(pts)
}

// baselineTraceOracle is BaselineTrace as it stood before PR 24: a
// closure that scans every record (twice) for each grid point.
func baselineTraceOracle(log *player.SessionLog, gridSecs float64) (*trace.Trace, error) {
	if log == nil || len(log.Records) == 0 {
		return nil, errors.New("abduction: empty session log")
	}
	if gridSecs <= 0 {
		return nil, fmt.Errorf("abduction: grid %v <= 0", gridSecs)
	}
	recs := log.Records
	horizon := recs[len(recs)-1].End + gridSecs
	n := int(math.Ceil(horizon/gridSecs)) + 1
	vals := make([]float64, n)

	valueAt := func(t float64) float64 {
		// Inside a download window: that chunk's observed throughput.
		for _, r := range recs {
			if t >= r.Start && t <= r.End {
				return r.ThroughputMbps
			}
		}
		// Before the first chunk / after the last: hold the edge value.
		if t < recs[0].Start {
			return recs[0].ThroughputMbps
		}
		last := recs[len(recs)-1]
		if t > last.End {
			return last.ThroughputMbps
		}
		// Off-period: linear interpolation between the previous chunk's
		// and next chunk's throughput across the gap.
		for i := 0; i+1 < len(recs); i++ {
			if t > recs[i].End && t < recs[i+1].Start {
				span := recs[i+1].Start - recs[i].End
				if span <= 0 {
					return recs[i+1].ThroughputMbps
				}
				frac := (t - recs[i].End) / span
				return recs[i].ThroughputMbps + frac*(recs[i+1].ThroughputMbps-recs[i].ThroughputMbps)
			}
		}
		return last.ThroughputMbps
	}

	for i := 0; i < n; i++ {
		vals[i] = valueAt(float64(i) * gridSecs)
	}
	return fromStepsOracle(gridSecs, vals)
}

// pathToTraceOracle is Abduction.pathToTrace as it stood before PR 24,
// with its known/counts bookkeeping and its scan for the first and last
// known interval.
func pathToTraceOracle(a *Abduction, path []int) *trace.Trace {
	delta := a.cfg.HMM.DeltaSecs
	eps := a.cfg.HMM.EpsMbps
	lastInterval := a.Observations[len(a.Observations)-1].StartInterval
	// Pad beyond the final chunk so replays that run longer (e.g. more
	// rebuffering in Setting B) still see defined bandwidth; Trace.At
	// holds the last value beyond the end anyway.
	n := lastInterval + 2
	vals := make([]float64, n)
	known := make([]bool, n)
	counts := make([]int, n)

	for i, o := range a.Observations {
		idx := o.StartInterval
		cap := a.Model.Capacity(path[i])
		if known[idx] {
			// Multiple chunks start in one interval ("zero, one or more
			// observations per hidden state"): average their draws.
			vals[idx] = (vals[idx]*float64(counts[idx]) + cap) / float64(counts[idx]+1)
			counts[idx]++
		} else {
			vals[idx] = cap
			known[idx] = true
			counts[idx] = 1
		}
	}

	// Interpolate gaps between known intervals; extend edges.
	firstKnown, lastKnown := -1, -1
	for i := 0; i < n; i++ {
		if known[i] {
			if firstKnown < 0 {
				firstKnown = i
			}
			lastKnown = i
		}
	}
	for i := 0; i < firstKnown; i++ {
		vals[i] = vals[firstKnown]
	}
	for i := lastKnown + 1; i < n; i++ {
		vals[i] = vals[lastKnown]
	}
	prev := firstKnown
	for i := firstKnown + 1; i <= lastKnown; i++ {
		if !known[i] {
			continue
		}
		if i > prev+1 {
			for j := prev + 1; j < i; j++ {
				t := float64(j-prev) / float64(i-prev)
				v := vals[prev] + (vals[i]-vals[prev])*t
				vals[j] = math.Round(v/eps) * eps
			}
		}
		prev = i
	}

	tr, err := fromStepsOracle(delta, vals)
	if err != nil {
		panic(fmt.Sprintf("abduction: internal trace construction failed: %v", err))
	}
	return tr
}

// replayOracle is Replay as it stood before replays shared a jitter
// sequence and stopped keeping a log: a full player.Run — a private
// generator seeded per replay, the log built and thrown away.
func replayOracle(tr *trace.Trace, s Setting) (player.Metrics, error) {
	if err := s.Validate(); err != nil {
		return player.Metrics{}, err
	}
	_, m, err := player.Run(player.Config{
		Video:     s.Video,
		ABR:       s.NewABR(),
		Trace:     tr,
		Net:       s.Net,
		BufferCap: s.BufferCap,
	})
	return m, err
}

// counterfactualOracle is Abduction.Counterfactual as it stood before
// PR 24: every arm rebuilds the Baseline trace and all K sample traces,
// each through FromSteps → New, and replays them through replayOracle.
func counterfactualOracle(t *testing.T, a *Abduction, s Setting) *CounterfactualOutcome {
	t.Helper()
	base, err := baselineTraceOracle(a.log, 1)
	if err != nil {
		t.Fatal(err)
	}
	baseM, err := replayOracle(base, s)
	if err != nil {
		t.Fatal(err)
	}
	out := &CounterfactualOutcome{Baseline: baseM}
	for _, p := range a.SampledPaths {
		m, err := replayOracle(pathToTraceOracle(a, p), s)
		if err != nil {
			t.Fatal(err)
		}
		out.Samples = append(out.Samples, m)
	}
	return out
}

func samePoints(a, b *trace.Trace) error {
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		return fmt.Errorf("%d points, oracle has %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return fmt.Errorf("point %d = %v, oracle has %v", i, pa[i], pb[i])
		}
	}
	return nil
}

// sessionLog runs an MPC session over a seeded FCC trace.
func sessionLog(t *testing.T, seed int64, chunks int, bufferCap float64) *player.SessionLog {
	t.Helper()
	gt, err := trace.Generate(trace.DefaultFCC(seed))
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := player.Run(player.Config{
		Video:     video.Default(),
		ABR:       abr.NewMPC(),
		Trace:     gt,
		Net:       netem.Config{RTT: 0.160, SlowStartRestart: true, JitterStd: 0.02, Seed: seed},
		BufferCap: bufferCap,
		MaxChunks: chunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// handLog builds a log from (start, end, Mbps) triples.
func handLog(windows ...[3]float64) *player.SessionLog {
	log := &player.SessionLog{ChunkSeconds: 2, BufferCap: 5}
	for i, w := range windows {
		log.Records = append(log.Records, player.ChunkRecord{
			Index: i, Start: w[0], End: w[1], ThroughputMbps: w[2], SizeBytes: 1e6, TCP: tcp.Fresh(0.080),
		})
	}
	return log
}

// TestBaselineMatchesOracle pins the merge pass to the old per-point
// closure bit for bit, over the shapes that exercise each of its arms.
func TestBaselineMatchesOracle(t *testing.T) {
	logs := map[string]*player.SessionLog{
		"single record":       singleChunkLog(),
		"hand-built 3 chunks": hostileLog(func(*player.ChunkRecord) {}),
		// End[i] == Start[i+1]: the shared instant belongs to chunk i.
		"back to back":              handLog([3]float64{0.25, 2, 3}, [3]float64{2, 4.5, 7}, [3]float64{4.5, 4.75, 1}),
		"back to back on the grid":  handLog([3]float64{0, 2, 3}, [3]float64{2, 5, 7}, [3]float64{5, 9, 1}),
		"start on a grid point":     handLog([3]float64{0.5, 1.5, 2}, [3]float64{7, 8.5, 6}, [3]float64{12, 12.5, 4}),
		"end on a grid point":       handLog([3]float64{0.5, 3, 2}, [3]float64{6.5, 9, 6}),
		"long off-periods":          handLog([3]float64{3.3, 4.1, 2}, [3]float64{64.7, 65.2, 8}, [3]float64{301.9, 302, 0.5}),
		"instant downloads":         handLog([3]float64{1, 1, 2}, [3]float64{1, 1, 5}, [3]float64{3, 3, 9}),
		"same start, nested window": handLog([3]float64{0, 10, 2}, [3]float64{0, 4, 5}, [3]float64{6, 7, 9}),
		"first chunk starts late":   handLog([3]float64{17.5, 18, 2}, [3]float64{19.5, 21, 3}),
	}
	for seed := int64(1); seed <= 6; seed++ {
		logs[fmt.Sprintf("fcc seed %d, 5 s buffer", seed)] = sessionLog(t, seed, 120, 5)
		logs[fmt.Sprintf("fcc seed %d, 30 s buffer", seed)] = sessionLog(t, seed, 120, 30)
	}
	logs["fcc seed 7, 300 chunks"] = sessionLog(t, 7, 0, 5)
	// Random windows on a quarter-second lattice, so starts, ends and
	// grid points coincide often; gaps and durations may be zero.
	rng := rand.New(rand.NewSource(24))
	for n := 0; n < 200; n++ {
		var windows [][3]float64
		start := float64(rng.Intn(12)) / 4
		for i := rng.Intn(9) + 1; i > 0; i-- {
			end := start + float64(rng.Intn(16))/4
			windows = append(windows, [3]float64{start, end, float64(rng.Intn(40)) / 4})
			start = end + float64(rng.Intn(3)*rng.Intn(20))/4
		}
		logs[fmt.Sprintf("random windows %d", n)] = handLog(windows...)
	}
	for name, log := range logs {
		got, err := BaselineTrace(log)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := baselineTraceOracle(log, 1)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if err := samePoints(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPathTracesMatchOracle pins the sample and most-likely traces to
// the old expansion bit for bit: sessions with several chunk starts in
// one interval (a 30 s buffer fills in a burst), long gaps to
// interpolate, a late first chunk and a single record.
func TestPathTracesMatchOracle(t *testing.T) {
	logs := map[string]*player.SessionLog{
		"single record":     singleChunkLog(),
		"late first chunk":  handLog([3]float64{17.5, 18, 2}, [3]float64{19.5, 21, 3}, [3]float64{58, 59, 6}),
		"fcc 7, 5 s buffer": sessionLog(t, 7, 0, 5),
		"fcc 3, 30 s":       sessionLog(t, 3, 150, 30),
	}
	for name, log := range logs {
		a, err := Abduct(log, Config{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path, _, err := a.Model.ViterbiPath(a.Observations)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := samePoints(a.MostLikelyTrace(), pathToTraceOracle(a, path)); err != nil {
			t.Errorf("%s: most likely trace: %v", name, err)
		}
		for i, tr := range a.SampleTraces() {
			if err := samePoints(tr, pathToTraceOracle(a, a.SampledPaths[i])); err != nil {
				t.Errorf("%s: sample trace %d: %v", name, i, err)
			}
		}
	}
}

// TestCounterfactualMatchesPerArmOracle runs the default campaign's four
// arms on one Abduction — traces built once — and on the old per-arm
// rebuild, and wants equal metrics.
func TestCounterfactualMatchesPerArmOracle(t *testing.T) {
	log := sessionLog(t, 7, 0, 5)
	for _, k := range []int{1, 5} {
		a, err := Abduct(log, Config{NumSamples: k, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range []struct {
			name   string
			newABR func() abr.Algorithm
			buf    float64
		}{
			{"bba-5s", func() abr.Algorithm { return abr.NewBBA() }, 5},
			{"bba-30s", func() abr.Algorithm { return abr.NewBBA() }, 30},
			{"bola-5s", func() abr.Algorithm { return abr.NewBOLA() }, 5},
			{"bola-30s", func() abr.Algorithm { return abr.NewBOLA() }, 30},
		} {
			s := Setting{Video: video.Default(), NewABR: arm.newABR, BufferCap: arm.buf, Net: netem.DefaultConfig()}
			got, err := a.Counterfactual(s)
			if err != nil {
				t.Fatal(err)
			}
			want := counterfactualOracle(t, a, s)
			if got.Baseline != want.Baseline {
				t.Errorf("K=%d %s: Baseline %+v, oracle %+v", k, arm.name, got.Baseline, want.Baseline)
			}
			if len(got.Samples) != k || len(want.Samples) != k {
				t.Fatalf("K=%d %s: %d samples, oracle %d", k, arm.name, len(got.Samples), len(want.Samples))
			}
			for i := range got.Samples {
				if got.Samples[i] != want.Samples[i] {
					t.Errorf("K=%d %s: sample %d %+v, oracle %+v", k, arm.name, i, got.Samples[i], want.Samples[i])
				}
			}
		}
	}
}

// TestEstimateTracesBuiltOnce pins the ownership: the traces belong to
// the Abduction, so asking twice gives the same objects and the second
// arm does not pay for them again.
func TestEstimateTracesBuiltOnce(t *testing.T) {
	log := sessionLog(t, 7, 120, 5)
	a, err := Abduct(log, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := Setting{Video: video.Default(), NewABR: func() abr.Algorithm { return abr.NewBBA() }, BufferCap: 5, Net: netem.DefaultConfig()}
	// testing.AllocsPerRun warms up with a call of its own, which would
	// be the first arm; count by hand.
	armMallocs := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := a.Counterfactual(s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if first, second := armMallocs(), armMallocs(); second >= first {
		t.Errorf("second arm made %d allocations, the first %d: the traces were built again", second, first)
	}
	s1, s2 := a.SampleTraces(), a.SampleTraces()
	if len(s1) != DefaultSamples || len(s2) != len(s1) {
		t.Fatalf("%d and %d sample traces, want %d", len(s1), len(s2), DefaultSamples)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("sample trace %d rebuilt between calls", i)
		}
	}

	// Arms of one session may be asked from several goroutines: whoever
	// comes first builds, everyone reads the same traces (run -race).
	fresh, err := Abduct(log, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Counterfactual(s)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := fresh.Counterfactual(s)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Baseline != want.Baseline || got.Samples[len(got.Samples)-1] != want.Samples[len(want.Samples)-1] {
				t.Errorf("concurrent arm differs: %+v, want %+v", got, want)
			}
			if tr := fresh.SampleTraces(); len(tr) != DefaultSamples {
				t.Errorf("%d sample traces, want %d", len(tr), DefaultSamples)
			}
		}()
	}
	wg.Wait()
}

// TestReplaysMatchOracleAcrossGoroutines runs the Counterfactual and
// truth Replay of every arm of two Abductions — two sessions, one
// network seed — from many goroutines at once, all reading the seed's
// one shared jitter sequence while it is still being drawn (run with
// -race), and wants the oracle's metrics: a private generator and a full
// log per replay. One arm runs on another seed, so two sequences grow
// side by side.
func TestReplaysMatchOracleAcrossGoroutines(t *testing.T) {
	net := netem.DefaultConfig()
	net.Seed = 4099 // no other test's seed: the sequence starts undrawn
	other := net
	other.Seed = 99
	var settings []Setting
	for _, buf := range []float64{5, 30} {
		settings = append(settings,
			Setting{Video: video.Default(), NewABR: func() abr.Algorithm { return abr.NewBBA() }, BufferCap: buf, Net: net},
			Setting{Video: video.Default(), NewABR: func() abr.Algorithm { return abr.NewBOLA() }, BufferCap: buf, Net: net})
	}
	settings = append(settings, Setting{Video: video.Default(), NewABR: func() abr.Algorithm { return abr.NewMPC() }, BufferCap: 5, Net: other})

	type session struct {
		a         *Abduction
		truth     *trace.Trace
		wantCF    []*CounterfactualOutcome
		wantTruth []player.Metrics
	}
	var sessions []session
	for _, seed := range []int64{7, 11} {
		a, err := Abduct(sessionLog(t, seed, 0, 5), Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := trace.Generate(trace.DefaultFCC(seed))
		if err != nil {
			t.Fatal(err)
		}
		ss := session{a: a, truth: truth, wantCF: make([]*CounterfactualOutcome, len(settings)), wantTruth: make([]player.Metrics, len(settings))}
		for i, s := range settings {
			ss.wantCF[i] = counterfactualOracle(t, a, s)
			if ss.wantTruth[i], err = replayOracle(truth, s); err != nil {
				t.Fatal(err)
			}
		}
		sessions = append(sessions, ss)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ss := sessions[g%len(sessions)]
			for k := range settings {
				i := (k + g) % len(settings) // the goroutines start on different arms
				s := settings[i]
				got, err := ss.a.Counterfactual(s)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Baseline != ss.wantCF[i].Baseline {
					t.Errorf("goroutine %d, setting %d: Baseline %+v, oracle %+v", g, i, got.Baseline, ss.wantCF[i].Baseline)
				}
				for k := range got.Samples {
					if got.Samples[k] != ss.wantCF[i].Samples[k] {
						t.Errorf("goroutine %d, setting %d: sample %d %+v, oracle %+v", g, i, k, got.Samples[k], ss.wantCF[i].Samples[k])
					}
				}
				if m, err := Replay(ss.truth, s); err != nil || m != ss.wantTruth[i] {
					t.Errorf("goroutine %d, setting %d: truth replay %+v (%v), oracle %+v", g, i, m, err, ss.wantTruth[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCounterfactualStallsOnZeroTail pins today's latent stall: a sample
// path whose last state is the grid's 0 Mbps holds 0 Mbps past the log,
// so a replay that runs into it can never finish, and Counterfactual
// fails with an error wrapping netem.ErrStalled.
func TestCounterfactualStallsOnZeroTail(t *testing.T) {
	a, err := Abduct(sessionLog(t, 7, 0, 5), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Model.Capacity(0) != 0 {
		t.Fatalf("grid state 0 is %v Mbps, want 0", a.Model.Capacity(0))
	}
	p := a.SampledPaths[len(a.SampledPaths)-1]
	p[len(p)-1] = 0 // before first use: the sample traces are built from the paths
	s := Setting{Video: video.Default(), NewABR: func() abr.Algorithm { return abr.NewBBA() }, BufferCap: 5, Net: netem.DefaultConfig()}
	if _, err := a.Counterfactual(s); !errors.Is(err, netem.ErrStalled) {
		t.Fatalf("Counterfactual err = %v, want one wrapping netem.ErrStalled", err)
	}
}
