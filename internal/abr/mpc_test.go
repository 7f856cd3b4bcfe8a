package abr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"veritas/internal/video"
)

// exhaustiveChoose is MPC.Choose as it stood before the branch-and-bound
// planner, kept verbatim as the oracle: a depth-first enumeration of
// every quality sequence whose only pruning is "a perfect completion
// cannot catch the incumbent". It advances m's error history exactly
// like Choose, so feed it a twin instance.
func exhaustiveChoose(m *MPC, ctx Context) int {
	v := ctx.Video
	pred := m.predict(ctx.PastThroughputMbps)
	if pred <= 0 {
		return 0
	}
	horizon := m.horizon()
	remaining := v.NumChunks() - ctx.ChunkIndex
	if horizon > remaining {
		horizon = remaining
	}
	if horizon <= 0 {
		return 0
	}

	nq := v.NumQualities()
	bestQ, bestScore := 0, math.Inf(-1)
	seq := make([]int, horizon)

	var search func(depth int, buffer float64, lastQ int, score float64)
	search = func(depth int, buffer float64, lastQ int, score float64) {
		if depth == horizon {
			if score > bestScore {
				bestScore = score
				bestQ = seq[0]
			}
			return
		}
		maxRate := v.Quality(nq - 1).Mbps
		if score+float64(horizon-depth)*maxRate <= bestScore {
			return
		}
		chunk := ctx.ChunkIndex + depth
		for q := 0; q < nq; q++ {
			size := v.Size(chunk, q)
			dl := size * 8 / 1e6 / pred
			rebuf := math.Max(0, dl-buffer)
			nb := math.Max(0, buffer-dl) + v.ChunkSeconds()
			if nb > ctx.BufferCap {
				nb = ctx.BufferCap
			}
			rate := v.Quality(q).Mbps
			step := rate - m.rebufPenalty()*rebuf
			if lastQ >= 0 {
				step -= m.SmoothPenalty * math.Abs(rate-v.Quality(lastQ).Mbps)
			}
			seq[depth] = q
			search(depth+1, nb, q, score+step)
		}
	}
	search(0, ctx.BufferSeconds, ctx.LastQuality, 0)
	return clampQuality(bestQ, v)
}

// plannerClips are the clips the differential test draws from: both
// ladders, with the usual VBR variation and with none (every chunk the
// same size, so permuted sequences tie).
func plannerClips() []*video.Video {
	var clips []*video.Video
	for _, ladder := range [][]video.Quality{video.DefaultLadder(), video.HigherLadder()} {
		for _, vbr := range []float64{0.15, 0} {
			cfg := video.DefaultConfig(7)
			cfg.NumChunks, cfg.Ladder, cfg.VBRStd = 40, ladder, vbr
			clips = append(clips, video.MustSynthesize(cfg))
		}
	}
	return clips
}

// hostileSamples are throughput observations no real download produces.
var hostileSamples = []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -3, 5e-324, 1e-300, 1e300, math.MaxFloat64}

// randomPlannerCase draws one decision context and sets m's knobs for
// it. kind 0 is the general mix, 1 the tie-heavy one (no VBR, no
// smoothing), 2 a hostile throughput history.
func randomPlannerCase(rng *rand.Rand, clips []*video.Video, kind int, m *MPC) Context {
	v := clips[rng.Intn(len(clips))]
	m.SmoothPenalty = []float64{1, 1, 1, 0, 0.5, 3}[rng.Intn(6)]
	if kind == 1 {
		v = clips[1+2*rng.Intn(2)]
		m.SmoothPenalty = 0
	}
	nq := v.NumQualities()
	// Deep horizons only where the oracle can afford them.
	m.Horizon = []int{0, 1, 2, 3, 3, 4, 4, 4}[rng.Intn(8)]
	if deep := rng.Intn(40); deep == 0 || (deep < 4 && nq < 8) {
		m.Horizon = 5 + rng.Intn(2)
	}
	m.RebufPenalty = []float64{0, 0, 4.3, 20}[rng.Intn(4)]
	m.Window = []int{0, 0, 3, 8}[rng.Intn(4)]
	m.Robust = rng.Intn(4) != 0
	// A fresh error history per case: carried across unrelated contexts
	// it would grow until every prediction is near zero.
	m.maxErr = 0.5 * rng.Float64() * float64(rng.Intn(2))

	ctx := Context{Video: v, ChunkIndex: rng.Intn(v.NumChunks())}
	if rng.Intn(5) == 0 {
		ctx.ChunkIndex = v.NumChunks() - 1 - rng.Intn(6) // the clip runs out inside the horizon
	}
	ctx.BufferCap = []float64{2.5, 5, 30}[rng.Intn(3)]
	ctx.BufferSeconds = rng.Float64() * ctx.BufferCap
	if rng.Intn(8) == 0 {
		ctx.BufferSeconds = []float64{0, ctx.BufferCap, v.ChunkSeconds()}[rng.Intn(3)]
	}
	ctx.LastQuality = rng.Intn(nq+1) - 1
	base := 0.1 * math.Pow(500, rng.Float64()) // log-uniform over 0.1–50 Mbps
	for n := rng.Intn(9); n > 0; n-- {
		ctx.PastThroughputMbps = append(ctx.PastThroughputMbps, base*(0.5+rng.Float64()))
	}
	if kind == 2 {
		for n := 1 + rng.Intn(3); n > 0 && len(ctx.PastThroughputMbps) > 0; n-- {
			ctx.PastThroughputMbps[rng.Intn(len(ctx.PastThroughputMbps))] = hostileSamples[rng.Intn(len(hostileSamples))]
		}
	}
	return ctx
}

// TestMPCMatchesExhaustive is the planner's differential test: over a
// million seeded contexts, the branch and bound and the exhaustive
// oracle must pick the same quality. One planner instance serves a
// whole stream of contexts, so its ladder tables and scratch are
// re-targeted across clips, horizons and penalties on the way.
func TestMPCMatchesExhaustive(t *testing.T) {
	total := 1 << 20
	if testing.Short() {
		total = 1 << 16
	}
	const streams = 8
	clips := plannerClips()
	for s := 0; s < streams; s++ {
		t.Run(fmt.Sprintf("stream%d", s), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			plan, oracle := NewMPC(), NewMPC()
			for i := 0; i < total/streams; i++ {
				kind := 0
				if r := i % 10; r >= 7 {
					kind = 1 + r/9 // 70 % general, 20 % tie-heavy, 10 % hostile
				}
				ctx := randomPlannerCase(rng, clips, kind, plan)
				oracle.Horizon, oracle.Window, oracle.Robust = plan.Horizon, plan.Window, plan.Robust
				oracle.RebufPenalty, oracle.SmoothPenalty, oracle.maxErr = plan.RebufPenalty, plan.SmoothPenalty, plan.maxErr
				got, want := plan.Choose(ctx), exhaustiveChoose(oracle, ctx)
				if got != want {
					t.Fatalf("case %d (kind %d): planner chose %d, exhaustive search %d\nmpc %+v\nctx %+v",
						i, kind, got, want, *oracle, ctx)
				}
			}
		})
	}
}

// TestMPCHostileHistory: whatever the throughput history holds, Choose
// neither panics nor departs from the oracle, and stays in range.
func TestMPCHostileHistory(t *testing.T) {
	v := testVideo(t)
	for _, a := range hostileSamples {
		for _, b := range hostileSamples {
			for _, hist := range [][]float64{{a}, {a, b}, {2, a, b}, {a, 2, b, 2}, {a, b, a, b, a, b}} {
				plan, oracle := NewMPC(), NewMPC()
				for buffer := 0.0; buffer <= 5; buffer += 2.5 {
					ctx := ctxWith(v, buffer, hist)
					got, want := plan.Choose(ctx), exhaustiveChoose(oracle, ctx)
					if got != want || got < 0 || got >= v.NumQualities() {
						t.Fatalf("history %v buffer %v: planner chose %d, exhaustive search %d", hist, buffer, got, want)
					}
				}
			}
		}
	}
}

// TestMPCZeroValueSmoothPenalty pins the documented asymmetry: a
// zero-value MPC gets the default horizon, window and rebuffer penalty
// but no smoothing; only NewMPC sets SmoothPenalty to 1.
func TestMPCZeroValueSmoothPenalty(t *testing.T) {
	if got := NewMPC().SmoothPenalty; got != 1 {
		t.Fatalf("NewMPC().SmoothPenalty = %v, want 1", got)
	}
	v := testVideo(t)
	ctx := ctxWith(v, 1, []float64{1.5, 1.5, 1.5, 1.5, 1.5})
	if got, want := (&MPC{}).Choose(ctx), exhaustiveChoose(&MPC{Horizon: 4, Window: 5, RebufPenalty: 8}, ctx); got != want {
		t.Errorf("zero-value MPC chose %d, want %d (defaults 4/5/8, no smoothing)", got, want)
	}
	// The clip's last chunk on a fast link: nothing but a switching cost
	// keeps the planner off the top rung.
	ctx = ctxWith(v, 4, []float64{50, 50, 50, 50, 50})
	ctx.ChunkIndex = v.NumChunks() - 1
	if got := (&MPC{}).Choose(ctx); got != v.NumQualities()-1 {
		t.Errorf("zero-value MPC chose %d on the last chunk, want the top rung: it must not smooth", got)
	}
	if got := (&MPC{SmoothPenalty: 2}).Choose(ctx); got != ctx.LastQuality {
		t.Errorf("SmoothPenalty 2 chose %d on the last chunk, want to stay at %d", got, ctx.LastQuality)
	}
}

// TestChooseDoesNotAllocate guards the replay and simulate hot paths: a
// decision of BBA, BOLA or a warm MPC allocates nothing.
func TestChooseDoesNotAllocate(t *testing.T) {
	v := testVideo(t)
	ctx := ctxWith(v, 3, []float64{2, 3, 2.5, 1.5, 2})
	for _, alg := range []Algorithm{NewBBA(), NewBOLA(), NewMPC()} {
		alg.Choose(ctx) // warm: MPC sizes its tables on first use
		if n := testing.AllocsPerRun(100, func() { alg.Choose(ctx) }); n != 0 {
			t.Errorf("%s.Choose allocates %v times per decision, want 0", alg.Name(), n)
		}
	}
}

var sinkQuality int

// BenchmarkMPCChoose times warm MPC decisions mid-clip at the default
// horizon, where the predicted throughput sits below, inside and above
// the ladder: the bound is loosest when rebuffering is unavoidable. One
// op is a sweep of 256 decisions over chunk indices and buffer levels
// (divide by 256 for one Choose), long enough for CI's -benchtime=3x
// to time.
func BenchmarkMPCChoose(b *testing.B) {
	v := video.MustSynthesize(video.DefaultConfig(1))
	for _, bc := range []struct {
		name string
		mbps float64
	}{{"low", 0.3}, {"mid", 2}, {"high", 20}} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMPC()
			ctx := Context{
				BufferCap: 5, LastQuality: 3, Video: v,
				PastThroughputMbps: []float64{bc.mbps, 1.2 * bc.mbps, 0.8 * bc.mbps, bc.mbps, 1.1 * bc.mbps},
			}
			m.Choose(ctx) // warm: the tables are sized on first use
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 256; k++ {
					ctx.ChunkIndex = k
					ctx.BufferSeconds = float64(k%11) * 0.5
					sinkQuality = m.Choose(ctx)
				}
			}
		})
	}
}
