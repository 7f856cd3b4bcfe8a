package experiments

import (
	"context"
	"fmt"

	"veritas/internal/abduction"
	"veritas/internal/abr"
	"veritas/internal/engine"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// The evaluation's setups (§4.1), each declared once. Setting A, the
// deployed system, is the engine's default session — MPC with a 5 s
// buffer on the default ladder — over the testbed path: deployed builds
// it. The Setting Bs are the whatIf table; the trace sets beyond the
// scale's regime are poorLink, goodLink and wideLink.

// testbedNet returns the emulated path used across the evaluation: the
// paper's Mahimahi shell with an 80 ms end-to-end delay each way
// (160 ms RTT), slow-start restart on, mild queueing jitter. The seed
// offsets keep independent sessions on independent jitter streams.
func testbedNet(seed int64) netem.Config {
	cfg := netem.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// clip is the default 10-minute clip truncated to the scale's chunk
// count (Validate keeps NumChunks within it).
func (s Scale) clip() *video.Video { return video.Default().Prefix(s.NumChunks) }

// deployed is Setting A streaming tr: the engine's default ABR and
// buffer, on clip, over the testbed path seeded netSeed.
func deployed(id string, tr *trace.Trace, clip *video.Video, netSeed int64) engine.SessionSpec {
	net := testbedNet(netSeed)
	return engine.SessionSpec{ID: id, Trace: tr, Video: clip, Net: &net}
}

// Indices into whatIf.
const (
	toBBA = iota
	toBOLA
	toBuffer30
	toHigher
)

// whatIf is the table of Setting Bs: the what-if designs every
// counterfactual figure replays Setting A's sessions under.
var whatIf = [...]struct {
	name   string
	abr    string  // an engine.NewABR name
	buffer float64 // seconds
	higher bool    // stream the Figure 11 higher-quality ladder
}{
	toBBA:      {"MPC->BBA", "bba", player.DefaultBufferCap, false},        // Figs 8, 9, 14(b)
	toBOLA:     {"MPC->BOLA", "bola", player.DefaultBufferCap, false},      // Figs 13, 14(c)
	toBuffer30: {"buffer 5s->30s", "mpc", 30, false},                       // Figs 10, 14(d)
	toHigher:   {"higher qualities", "mpc", player.DefaultBufferCap, true}, // Figs 11, 14(e)
}

// arms returns the engine arms of the given whatIf entries, streaming
// clip's content over the testbed path seeded 2.
func arms(clip *video.Video, ids ...int) []engine.Arm {
	out := make([]engine.Arm, len(ids))
	for i, id := range ids {
		w := whatIf[id]
		v := clip
		if w.higher {
			cfg := video.DefaultConfig(1)
			cfg.NumChunks = clip.NumChunks()
			cfg.Ladder = video.HigherLadder()
			v = video.MustSynthesize(cfg)
		}
		out[i] = engine.Arm{Name: w.name, Setting: abduction.Setting{
			Video: v,
			NewABR: func() abr.Algorithm {
				alg, _ := engine.NewABR(w.abr) // every table name is one of engine.ABRs()
				return alg
			},
			BufferCap: w.buffer,
			Net:       testbedNet(2),
		}}
	}
	return out
}

// The trace sets beyond the scale's regime; callers pick the seed.
var (
	// poorLink (0.05–0.3 Mbps) is half of Figure 2(a/b)'s training mix
	// and Figure 2(b)'s query trace.
	poorLink = trace.GenConfig{MinMbps: 0.05, MaxMbps: 0.3, Interval: 5, Horizon: 3600, StepMbps: 0.05, JumpProb: 0.02}
	// goodLink (9–10 Mbps) is the other half of that mix.
	goodLink = trace.GenConfig{MinMbps: 9, MaxMbps: 10, Interval: 5, Horizon: 900, StepMbps: 0.2, JumpProb: 0.02}
	// wideLink (0.5–10 Mbps) is Figure 12's interventional range: its
	// Fugu training set and its random-ABR test set.
	wideLink = trace.GenConfig{MinMbps: 0.5, MaxMbps: 10, Interval: 5, Horizon: 900, StepMbps: 0.4, JumpProb: 0.02}
)

// traces generates n traces of the set cfg from seed.
func traces(cfg trace.GenConfig, seed int64, n int) ([]*trace.Trace, error) {
	cfg.Seed = seed
	return trace.GenerateSet(cfg, n)
}

// regimeTraces generates the counterfactual trace set in the scale's
// scenario regime (default: the paper's 3–8 Mbps FCC-like process).
func regimeTraces(s Scale) ([]*trace.Trace, error) {
	cfg, err := trace.RegimeConfig(s.Scenario, s.Seed)
	if err != nil {
		return nil, err
	}
	return trace.GenerateSet(cfg, s.NumTraces)
}

// poorGoodTraces builds the Figure 2(a/b) training mix: half the traces
// poor, half good.
func poorGoodTraces(seed int64, n int) ([]*trace.Trace, error) {
	half := max(1, n/2)
	poor, err := traces(poorLink, seed, half)
	if err != nil {
		return nil, err
	}
	good, err := traces(goodLink, seed+10_000, half)
	if err != nil {
		return nil, err
	}
	return append(poor, good...), nil
}

// run is the package's one engine.Run: corpus under arms on the scale's
// worker pool and K, results in corpus order. The engine's Seed stays
// zero: every spec carries its own abduction seed.
func run(s Scale, corpus []engine.SessionSpec, arms []engine.Arm, keepAbductions bool) ([]engine.SessionResult, error) {
	cfg := engine.Config{Workers: s.Workers, Samples: s.Samples, KeepAbductions: keepAbductions}
	res, err := engine.Run(context.Background(), cfg, corpus, arms)
	if err != nil {
		return nil, err
	}
	return res.Sessions, nil
}

// simulate streams every spec of corpus (no abduction) and returns the
// logs in corpus order.
func simulate(s Scale, corpus []engine.SessionSpec) ([]*player.SessionLog, error) {
	for i := range corpus {
		corpus[i].SimulateOnly = true
	}
	sessions, err := run(s, corpus, nil, false)
	if err != nil {
		return nil, err
	}
	logs := make([]*player.SessionLog, len(sessions))
	for i, sr := range sessions {
		logs[i] = sr.Log
	}
	return logs, nil
}

// deployedLogs streams Setting A over each trace — session i over the
// testbed path seeded s.Seed+i, no abduction — and returns the logs in
// trace order.
func deployedLogs(s Scale, trs []*trace.Trace) ([]*player.SessionLog, error) {
	clip := s.clip()
	corpus := make([]engine.SessionSpec, len(trs))
	for i, tr := range trs {
		corpus[i] = deployed(fmt.Sprintf("sim-%03d", i), tr, clip, s.Seed+int64(i))
	}
	return simulate(s, corpus)
}
