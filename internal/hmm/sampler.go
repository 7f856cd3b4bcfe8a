package hmm

import "veritas/internal/mathx"

// sampleInto draws one GTBW state sequence of n chunks into out — the
// paper's Algorithm 1 (Capacity Sampler) — from the α rows of Infer's
// forward pass and the steps it kept in sc.stepA/sc.stepBand, using the
// arena's weights buffer. The last chunk's state is pinned to last, the
// Viterbi maximum-likelihood state; every earlier chunk n is then drawn
// backward from the pairwise posterior conditioned on the already-drawn
// state s of chunk n+1, the column
//
//	Γ_{i,s,n} = α_n(i)·A^Δ(i, s)·e_{n+1}(s)·β_{n+1}(s) / total_n.
//
// Every factor after A^Δ(i, s) is one constant for the whole column, so
// the draw reads only
//
//	w_i = α_n(i)·A^Δ(i, s)
//
// over the rows of A^Δ's band that reach s — forward filtering, backward
// sampling — and no β, marginal or normalizer is computed. A column
// whose weights are all zero (s reachable from α_n's support only
// through products that underflowed) falls back to α_n itself, the
// filtered marginal, which is never empty.
func (m *Model) sampleInto(out []int, sc *Scratch, rng *mathx.Rand, n, last int) {
	ns := m.ns
	w := sc.weights
	out[n-1] = last
	for c := n - 2; c >= 0; c-- {
		s := out[c+1]
		a, band := sc.stepA[c+1], sc.stepBand[c+1]
		ac := sc.alpha[c*ns : (c+1)*ns]
		clear(w)
		var total float64
		for i := band.ColLo[s]; i < band.ColHi[s]; i++ {
			v := ac[i] * a.At(i, s)
			w[i] = v
			total += v
		}
		if total <= 0 {
			copy(w, ac)
		}
		out[c] = mathx.SampleCategorical(rng, w)
	}
}

// ExpectedCapacityAfter returns E[C_{t+gap} | C_t = state]: the mean of
// the capacity grid under the gap-step transition distribution from the
// given state. Veritas's interventional download-time predictor uses
// this with the Viterbi state of the most recent chunk (paper §4.4).
// Row state of A^gap is state's one-hot row stepped gap times through
// A^1 by VecMulInto, the step of the power cache's own walk, so this is
// the cached power's row bit for bit, in O(gap·S·band) time with no
// shared state and, past gap 1, one 2·S slab per call.
func (m *Model) ExpectedCapacityAfter(state, gap int) float64 {
	if gap <= 0 {
		return m.Capacity(state)
	}
	a, band := m.powCache.PowBand(1)
	row, lo, hi := a.Row(state), band.RowLo[state], band.RowHi[state]
	if gap > 1 {
		slab := make([]float64, 2*m.ns)
		cur, next := slab[:m.ns], slab[m.ns:]
		copy(cur, row)
		for ; gap > 1; gap-- {
			a.VecMulInto(next, cur, band)
			cur, next = next, cur
		}
		row, lo, hi = cur, 0, m.ns
	}
	var e float64
	for j := lo; j < hi; j++ {
		e += row[j] * m.Capacity(j)
	}
	return e
}
