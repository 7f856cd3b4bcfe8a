package hmm

import (
	"errors"
	"math/rand"

	"veritas/internal/mathx"
)

// sampleInto draws one GTBW state sequence from the posterior into out
// (length post.Len()) — the paper's Algorithm 1 (Capacity Sampler) —
// using the arena's weights buffer. The last chunk's state is pinned to
// the Viterbi maximum-likelihood state; every earlier chunk n is then
// sampled backward from the pairwise posterior conditioned on the
// already-sampled state of chunk n+1:
//
//	π_n(i) ∝ Γ_{i, C_{s_{n+1}}, n}.
//
// Only that column of Γ is computed (pairColumnInto). It expects Infer's
// α/β pass and sc.total filled.
func (m *Model) sampleInto(out []int, sc *Scratch, rng *rand.Rand, post *Posterior, viterbi []int) error {
	N := post.Len()
	if len(viterbi) != N {
		return errors.New("hmm: viterbi path length mismatch")
	}
	out[N-1] = viterbi[N-1]
	for n := N - 2; n >= 0; n-- {
		if total := m.pairColumnInto(sc.weights, sc, n, out[n+1]); total <= 0 {
			// The conditioned column is numerically empty (the sampled
			// next state was reachable only via Viterbi ties); fall back
			// to the marginal, which is always populated.
			copy(sc.weights, post.Gamma(n))
		}
		out[n] = mathx.SampleCategorical(rng, sc.weights)
	}
	return nil
}

// pairColumnInto writes column s of the chunk pair (n, n+1)'s pairwise
// posterior (paper Equation (6)) into w and returns the column's sum:
//
//	w[i] = Γ_{i,s,n} = α_n(i)·A^Δ(i, s)·e_{n+1}(s)·β_{n+1}(s) / total_n,
//
// the division skipped when total_n is not positive. Only the rows of
// A^Δ's band that reach s are computed; every other weight is an exact
// zero.
func (m *Model) pairColumnInto(w []float64, sc *Scratch, n, s int) float64 {
	ns := len(m.states)
	a, band := sc.stepA[n+1], sc.stepBand[n+1]
	an := sc.alpha[n*ns : (n+1)*ns]
	eNext, bNext := sc.emit[(n+1)*ns+s], sc.beta[(n+1)*ns+s]
	pairTotal := sc.total[n]
	for i := range w {
		w[i] = 0
	}
	var total float64
	for i := band.ColLo[s]; i < band.ColHi[s]; i++ {
		v := an[i] * a.At(i, s) * eNext * bNext
		if pairTotal > 0 {
			v /= pairTotal
		}
		w[i] = v
		total += v
	}
	return total
}

// ExpectedCapacityAfter returns E[C_{t+gap} | C_t = state]: the mean of
// the capacity grid under the gap-step transition distribution from the
// given state. Veritas's interventional download-time predictor uses
// this with the Viterbi state of the most recent chunk (paper §4.4).
func (m *Model) ExpectedCapacityAfter(state, gap int) float64 {
	if gap < 0 {
		gap = 0
	}
	a, band := m.powCache.PowBand(gap)
	row := a.Row(state)
	var e float64
	for j := band.RowLo[state]; j < band.RowHi[state]; j++ {
		e += row[j] * m.states[j]
	}
	return e
}
