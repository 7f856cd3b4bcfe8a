package hmm

import (
	"errors"
	"math/rand"

	"veritas/internal/mathx"
)

// sampleInto draws one GTBW state sequence from the posterior into out
// (length post.Len()) — the paper's Algorithm 1 (Capacity Sampler) —
// using the caller-supplied weights buffer (length NumStates). The last
// chunk's state is pinned to the Viterbi maximum-likelihood state; every
// earlier chunk n is then sampled backward from the pairwise posterior
// conditioned on the already-sampled state of chunk n+1:
//
//	π_n(i) ∝ Γ_{i, C_{s_{n+1}}, n}.
func (m *Model) sampleInto(out []int, weights []float64, rng *rand.Rand, post *Posterior, viterbi []int) error {
	N := post.Len()
	if len(viterbi) != N {
		return errors.New("hmm: viterbi path length mismatch")
	}
	ns := len(m.states)
	out[N-1] = viterbi[N-1]
	for n := N - 2; n >= 0; n-- {
		nextState := out[n+1]
		pair := post.Pair(n)
		var total float64
		for i := 0; i < ns; i++ {
			weights[i] = pair[i*ns+nextState]
			total += weights[i]
		}
		if total <= 0 {
			// The conditioned column is numerically empty (the sampled
			// next state was reachable only via Viterbi ties); fall back
			// to the marginal, which is always populated.
			copy(weights, post.Gamma(n))
		}
		out[n] = mathx.SampleCategorical(rng, weights)
	}
	return nil
}

// ExpectedCapacityAfter returns E[C_{t+gap} | C_t = state]: the mean of
// the capacity grid under the gap-step transition distribution from the
// given state. Veritas's interventional download-time predictor uses
// this with the Viterbi state of the most recent chunk (paper §4.4).
func (m *Model) ExpectedCapacityAfter(state, gap int) float64 {
	if gap < 0 {
		gap = 0
	}
	a := m.powCache.Pow(gap)
	row := a.Row(state)
	var e float64
	for j, p := range row {
		e += p * m.states[j]
	}
	return e
}
