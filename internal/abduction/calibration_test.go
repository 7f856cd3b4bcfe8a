package abduction

// A calibration check through the emulator: where the model, not the
// code, is wrong. hmm's TestSBCInteriorIsCalibrated judges the
// inference code against its own model (simulation-based calibration,
// Talts et al., arXiv:1804.06788). This test judges the model against
// the world a campaign simulates. Each replicate draws a truth path
// from the model's own prior, so the prior is right by construction,
// emulates the deployed session over it, abducts, and ranks the truth
// among the K samples at each chunk. Three arms share the truth paths
// and the emulated sessions' chunk start times:
//   - (a) model world: each chunk's TCP state and size drawn from a
//     fixed set, and its throughput from the model's emission;
//   - (b) the emulator's TCP states and chunk sizes, with throughputs
//     redrawn from the model's emission;
//   - (c) the full emulator: the session log as it is.
//
// Where an arm's ranks are not uniform, the model misreads what that
// arm adds to (a).

import (
	"fmt"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/hmm"
	"veritas/internal/mathx"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/trace"
	"veritas/internal/video"
)

const (
	emuReplicates = 600
	emuChunks     = 60
	emuK          = 9     // posterior samples per replicate: ranks 0…9
	emuChi2Crit   = 21.67 // χ², 9 degrees of freedom, 1 % critical value
	emuIntervals  = 400   // δ-intervals of truth, past any session's end
	emuFloorMbps  = 0.1   // what the emulator runs a 0 Mbps interval at
)

// emuPositions are the chunks whose rank histograms are tested.
var emuPositions = [...]int{0, 15, 30, 45, emuChunks - 1}

// emuStates and emuSizes are arm (a)'s TCP states and chunk sizes: a
// fresh connection, one past slow start and one with a wide-open
// window, against a small, a typical and a large chunk.
var (
	emuStates = []tcp.State{
		tcp.Fresh(0.040),
		{CWND: 40, SSThresh: 64, MinRTT: 0.060, RTT: 0.070, RTO: 0.3},
		{CWND: 2000, SSThresh: 2000, MinRTT: 0.080, RTT: 0.080, RTO: 0.3},
	}
	emuSizes = []float64{0.4e6, 1.5e6, 5e6}
)

// emuChi2 runs the replicates and returns, per arm, the χ² against the
// uniform of the truth's rank among the K samples at each of
// emuPositions. Ties between the truth and a sample are broken
// uniformly, which keeps an exact sampler's ranks uniform.
func emuChi2(t *testing.T, seed int64) [3][len(emuPositions)]float64 {
	t.Helper()
	hcfg := hmm.DefaultConfig(10) // 21 states, δ = 5 s, σ = 0.5 Mbps
	model, err := hmm.New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := hmm.NewScratch()
	model.SetScratch(sc)
	S := model.NumStates()
	prior := hmm.Tridiagonal(S, hcfg.StayProb)
	vid := video.Default()

	rng := mathx.NewRand(seed)
	truth := make([]int, emuIntervals)
	mbps := make([]float64, emuIntervals)
	row := make([]float64, S)
	var hist [3][len(emuPositions)][emuK + 1]int
	arm := make([]hmm.Observation, emuChunks)
	for r := 0; r < emuReplicates; r++ {
		for i := range truth {
			if i == 0 {
				truth[i] = rng.Intn(S) // the uniform initial distribution
			} else {
				copy(row, prior.Row(truth[i-1]))
				truth[i] = mathx.SampleCategorical(rng, row)
			}
			mbps[i] = max(model.Capacity(truth[i]), emuFloorMbps)
		}
		tr, err := trace.FromSteps(hcfg.DeltaSecs, mbps)
		if err != nil {
			t.Fatal(err)
		}
		net := netem.DefaultConfig()
		net.Seed = seed*1_000_003 + int64(r)
		log, _, err := player.Run(player.Config{Video: vid, ABR: abr.NewMPC(), Trace: tr, Net: net, BufferCap: 5, MaxChunks: emuChunks})
		if err != nil {
			t.Fatal(err)
		}
		emu, err := Observations(log, hcfg.DeltaSecs)
		if err != nil {
			t.Fatal(err)
		}
		for a := range hist {
			obs := emu
			if a < 2 {
				for n, o := range emu {
					if a == 0 {
						o.TCP, o.SizeBytes = emuStates[rng.Intn(len(emuStates))], emuSizes[rng.Intn(len(emuSizes))]
					}
					c := model.Capacity(truth[min(o.StartInterval, emuIntervals-1)])
					o.ThroughputMbps = tcp.EstimateThroughput(c, o.TCP, o.SizeBytes) + hcfg.Sigma*rng.NormFloat64()
					arm[n] = o
				}
				obs = arm[:len(emu)]
			}
			inf, err := model.Infer(obs, emuK, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			for p, n := range emuPositions {
				hist[a][p][emuRank(rng, inf.Samples, n, truth[min(obs[n].StartInterval, emuIntervals-1)])]++
			}
		}
	}
	var chi2 [3][len(emuPositions)]float64
	for a := range hist {
		for p := range emuPositions {
			chi2[a][p] = emuChi2Uniform(hist[a][p])
		}
	}
	return chi2
}

// emuRank is the number of samples below truth at chunk n, plus a
// uniform share of those equal to it.
func emuRank(rng *mathx.Rand, samples [][]int, n, truth int) int {
	below, ties := 0, 0
	for _, s := range samples {
		switch {
		case s[n] < truth:
			below++
		case s[n] == truth:
			ties++
		}
	}
	return below + rng.Intn(ties+1)
}

// emuChi2Uniform is Pearson's χ² of a histogram against the uniform.
func emuChi2Uniform(h [emuK + 1]int) float64 {
	total := 0
	for _, c := range h {
		total += c
	}
	want := float64(total) / float64(len(h))
	var x float64
	for _, c := range h {
		d := float64(c) - want
		x += d * d / want
	}
	return x
}

// TestEmulatorCalibrationMisses pins, as a named expected miss, the χ²
// of the truth's rank among K = 9 samples for each arm at chunks 0, 15,
// 30, 45 and 59 of 600 replicates of 60 chunks (MPC at a 5 s buffer on
// netem's default connection, S = 21, one seed; an interval at 0 Mbps
// is emulated at 0.1 Mbps so that no session stalls, and ranked as the
// 0 Mbps state it is). The 1 % critical value is 21.67. What the pinned
// numbers say:
//   - (a) is the model-world check: calibrated in the interior, like
//     hmm's SBC test. Its interior values are an exact sampler's noise:
//     chunk 30 reads 24.9 at this seed, above the 1 % value, while at
//     seeds 2–5 all sixteen interior values stay below it (20.5 at
//     most). Chunk 59 misses in every arm: the sampler pins the last
//     chunk to the Viterbi state (the paper's Algorithm 1).
//   - (b) misses: the logged TCP states and chunk sizes of an emulated
//     session carry something about capacity that the model does not
//     use.
//   - (c) misses most, and more so later in the session. Netem's
//     per-round multiplicative jitter is noise the emission model does
//     not have: with the jitter off, the same replicates read 30.5,
//     29.1, 12.8, 11.8 and 438.8 in (c).
//
// A change to the sampler, the emission, the prior or the emulator that
// moves these numbers must move the pins on purpose, and say which arm
// it moved.
func TestEmulatorCalibrationMisses(t *testing.T) {
	want := [3][len(emuPositions)]float64{
		{10.1, 8.9, 24.9, 10.3, 230.3},
		{59.0, 65.2, 84.6, 105.0, 964.3},
		{12.5, 45.6, 148.9, 338.8, 1389.5},
	}
	got := emuChi2(t, 1)
	for a, name := range []string{"(a) model world", "(b) emulator's W, S", "(c) emulator"} {
		for p, n := range emuPositions {
			if fmt.Sprintf("%.1f", got[a][p]) != fmt.Sprintf("%.1f", want[a][p]) {
				t.Errorf("%s, chunk %d: χ² = %.1f, pinned %.1f (critical %.2f)", name, n, got[a][p], want[a][p], emuChi2Crit)
			}
		}
	}
}
