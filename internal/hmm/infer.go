package hmm

import (
	"errors"

	"veritas/internal/mathx"
)

// Inference bundles everything one abduction needs from the model: the
// Viterbi path (Algorithm 3), the forward–backward posterior
// (Algorithm 2), and K posterior capacity samples (Algorithm 1).
type Inference struct {
	Path        []int
	PathLogProb float64
	Post        *Posterior
	Samples     [][]int
}

// Infer runs all three algorithms over one observation sequence,
// computing the inter-chunk gaps and the log-emission table (the hot
// path's dominant throughput-estimator work) once and sharing them. The
// result is a pure function of (obs, k, seed).
//
// k may be zero (no samples drawn). With a scratch arena attached via
// SetScratch, the whole result — path, posterior slabs, samples —
// points into the arena and obeys the Scratch lifetime contract;
// without one, the call allocates a private arena the result owns.
func (m *Model) Infer(obs []Observation, k int, seed int64) (*Inference, error) {
	if len(obs) == 0 {
		return nil, ErrNoObservations
	}
	if k < 0 {
		return nil, errors.New("hmm: Infer requires k >= 0")
	}
	sc := m.scratch()
	N := len(obs)
	ns := len(m.states)
	sc.inferSlabs(N, ns)
	// The steps point into the power cache — a fitted model's private
	// one included — so a recycled arena must not keep them alive.
	defer func() { clear(sc.stepA); clear(sc.stepBand) }()
	if err := gapsInto(sc.gaps, obs); err != nil {
		return nil, err
	}
	for n := 1; n < N; n++ {
		sc.stepA[n], sc.stepBand[n] = m.powCache.PowBand(sc.gaps[n])
	}
	for n, o := range obs {
		m.emissionRowInto(sc.emitLog[n*ns:(n+1)*ns], o)
	}

	path, best := m.viterbiInto(sc, N)
	ll, err := m.alphaBeta(sc, N, nil, mathx.Band{})
	if err != nil {
		return nil, err
	}
	post := m.posteriorInto(sc, N, ll)

	inf := &Inference{Path: path, PathLogProb: best, Post: post}
	if k > 0 {
		samples := sc.samples(k, N)
		rng := mathx.NewRand(seed)
		for s := 0; s < k; s++ {
			if err := m.sampleInto(samples[s], sc, rng, post, path); err != nil {
				return nil, err
			}
		}
		inf.Samples = samples
	}
	return inf, nil
}
