package hmm

// Inference bundles what one armed abduction reads from the model: the
// Viterbi state of the last chunk (Algorithm 3's path ends there) and
// its log-probability, the chain's log-likelihood from the scaled
// forward pass (Algorithm 2's α), and K posterior capacity samples
// (Algorithm 1). The full Viterbi path is ViterbiPath's.
type Inference struct {
	Last          int
	PathLogProb   float64
	LogLikelihood float64 // log P(Y_1:N | W, S) under the model
	Samples       [][]int
}

// Infer runs the chunk chain's one forward pass over the observations —
// each chunk's emission row is evaluated once and read by the Viterbi
// recursion and the α row alike — and then draws k samples backward
// from α. The result is a pure function of (obs, k, seed).
//
// k may be zero (no samples drawn). With a scratch arena attached via
// SetScratch, the samples point into the arena and obey the Scratch
// lifetime contract, and the arena's one N×S slab is α; without one,
// the call allocates a private arena the result owns.
func (m *Model) Infer(obs []Observation, k int, seed int64) (*Inference, error) {
	if len(obs) == 0 {
		return nil, ErrNoObservations
	}
	if k < 0 {
		return nil, ErrNegativeSamples
	}
	sc := m.scratch()
	N := len(obs)
	alpha := sc.inferSlabs(N, m.ns)
	// The steps point into the power cache — a fitted model's private
	// one included — so a recycled arena must not keep them alive.
	defer func() { clear(sc.stepA); clear(sc.stepBand) }()
	res, err := m.forward(sc, N, func(i int) Observation { return obs[i] }, alpha, nil)
	if err != nil {
		return nil, err
	}
	inf := &Inference{Last: res.last, PathLogProb: res.best, LogLikelihood: res.ll}
	if k > 0 {
		samples := sc.samples(k, N)
		rng := sc.reseeded(seed)
		for s := 0; s < k; s++ {
			m.sampleInto(samples[s], sc, rng, N, res.last)
		}
		inf.Samples = samples
	}
	return inf, nil
}
