package hmm

// Simulation-based calibration (Talts et al., "Validating Bayesian
// Inference Algorithms with Simulation-Based Calibration",
// arXiv:1804.06788) of the inference code against its own model. Each
// replicate draws a capacity path from the model's prior and a
// throughput per chunk from its emission, then ranks the true state
// among K posterior samples. If the sampler draws from the exact
// posterior, the rank at any chunk is uniform on 0…K, whatever the
// model's fit to the world: this judges the code, not the model.

import (
	"testing"

	"veritas/internal/mathx"
	"veritas/internal/tcp"
)

const (
	sbcReplicates = 1000
	sbcChunks     = 30
	sbcK          = 9     // posterior samples per replicate: ranks 0…9
	sbcChi2Crit   = 21.67 // χ², 9 degrees of freedom, 1 % critical value
)

// sbcStates and sbcSizes are the TCP states and chunk sizes a replicate
// draws from: a fresh connection, one past slow start and one with a
// wide-open window, each against a small, a typical and a large chunk.
var (
	sbcStates = []tcp.State{
		tcp.Fresh(0.040),
		{CWND: 40, SSThresh: 64, MinRTT: 0.060, RTT: 0.070, RTO: 0.3},
		{CWND: 2000, SSThresh: 2000, MinRTT: 0.080, RTT: 0.080, RTO: 0.3},
	}
	sbcSizes = []float64{0.4e6, 1.5e6, 5e6}
)

// sbcRanks runs the replicates of one seed and returns, per chunk, the
// histogram of the truth's rank among the K samples. Ties between the
// truth and a sample (states are discrete) are broken uniformly, which
// keeps an exact sampler's ranks uniform.
func sbcRanks(t *testing.T, m *Model, seed int64) [][sbcK + 1]int {
	t.Helper()
	rng := mathx.NewRand(seed)
	ns := m.NumStates()
	hist := make([][sbcK + 1]int, sbcChunks)
	truth := make([]int, sbcChunks)
	obs := make([]Observation, sbcChunks)
	row := make([]float64, ns)
	m.SetScratch(NewScratch())
	for r := 0; r < sbcReplicates; r++ {
		interval := 0
		for n := range obs {
			switch {
			case n == 0:
				truth[n] = rng.Intn(ns) // the uniform initial distribution
			case rng.Intn(2) == 0: // a gap of 0 δ: A⁰ is the identity
				truth[n] = truth[n-1]
			default: // a gap of 1 δ: one step of the prior
				interval++
				copy(row, m.powCache.Pow(1).Row(truth[n-1]))
				truth[n] = mathx.SampleCategorical(rng, row)
			}
			st, size := sbcStates[rng.Intn(len(sbcStates))], sbcSizes[rng.Intn(len(sbcSizes))]
			obs[n] = Observation{
				ThroughputMbps: tcp.EstimateThroughput(m.Capacity(truth[n]), st, size) + m.cfg.Sigma*rng.NormFloat64(),
				TCP:            st,
				SizeBytes:      size,
				StartInterval:  interval,
			}
		}
		inf, err := m.Infer(obs, sbcK, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		for n := range obs {
			hist[n][sbcRank(rng, inf.Samples, n, truth[n])]++
		}
	}
	return hist
}

// sbcRank is the number of samples below truth at chunk n, plus a
// uniform share of those equal to it.
func sbcRank(rng *mathx.Rand, samples [][]int, n, truth int) int {
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

// chi2Uniform is Pearson's χ² of a histogram against the uniform.
func chi2Uniform(h [sbcK + 1]int) float64 {
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

// TestSBCInteriorIsCalibrated: away from the last chunk the truth's rank
// among Infer's samples is uniform — the α/β pass, the banded kernels
// and the backward sampler draw from the model's exact posterior. Ranks
// are pooled over two fixed seeds, 2,000 replicates of 30 chunks in
// all, and tested at the first chunk and two interior ones. The last
// chunk is the named, expected miss: the sampler pins it to the Viterbi
// state (the paper's Algorithm 1), so every sample shares it and the
// ranks pile up at the ends (χ² in the hundreds). A change that draws
// the tail from the posterior must flip that assertion on purpose.
func TestSBCInteriorIsCalibrated(t *testing.T) {
	m, err := New(DefaultConfig(10)) // 21 states
	if err != nil {
		t.Fatal(err)
	}
	hist := make([][sbcK + 1]int, sbcChunks)
	for _, seed := range []int64{1, 2} {
		for n, h := range sbcRanks(t, m, seed) {
			for r, c := range h {
				hist[n][r] += c
			}
		}
	}
	for _, n := range []int{0, 10, 20} {
		if x := chi2Uniform(hist[n]); x >= sbcChi2Crit {
			t.Errorf("chunk %d of %d: χ² = %.1f ≥ %.2f, ranks %v: the posterior samples are not calibrated", n, sbcChunks, x, sbcChi2Crit, hist[n])
		}
	}
	last := sbcChunks - 1
	if x := chi2Uniform(hist[last]); x < sbcChi2Crit {
		t.Errorf("last chunk: χ² = %.1f < %.2f, ranks %v: the Viterbi-pinned tail is calibrated now; if that is intended, make this a uniformity assertion", x, sbcChi2Crit, hist[last])
	}
}
