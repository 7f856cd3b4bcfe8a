package hmm

import (
	"math"

	"veritas/internal/mathx"
)

// forwardResult is what one forward pass over the chunk chain leaves
// besides the slabs it was given: the last chunk's Viterbi state, that
// path's log-probability and, when α was written, log P(Y_1:N | W, S).
type forwardResult struct {
	last int
	best float64
	ll   float64
}

// forward is the chunk chain's one forward pass, run by every entry
// point that reads the chunk chain: Infer, ViterbiPath and
// LastViterbiState. It reads the n observations obs(0) … obs(n−1) once
// each, in order, and per chunk
//   - fills one log-emission row (emissionRowInto) into an S-vector;
//   - advances the Viterbi max-product recursion on it (Algorithm 3),
//     recording the winning predecessors into back's row when back is
//     set (n×S, row-major);
//   - when alpha is set (n×S, row-major), writes the chunk's row of the
//     scaled forward variables (Algorithm 2's α): the prediction through
//     A^Δn's band times the row's emissions rescaled by their maximum,
//     normalized. The step into each chunk, A^Δn and its band, is kept
//     in sc.stepA/sc.stepBand for the sampler; the caller clears them.
//
// Nothing else is indexed by chunk: no emission table, no β, no
// marginals, so storage is O(S) plus the slabs the caller passes. A
// chunk that starts before its predecessor is refused when the pass
// reaches it. The transition between chunks n−1 and n is A^Δn, the
// Δn-step power of the per-interval matrix, because chunk starts are
// embedded in wall-clock δ-intervals (Figure 4 of the paper).
func (m *Model) forward(sc *Scratch, n int, obs func(i int) Observation, alpha []float64, back []int) (forwardResult, error) {
	ns := m.ns
	score, next, emit := sc.vectors(ns)
	o := obs(0)
	m.emissionRowInto(emit, o)
	m.viterbiStart(score, emit)
	var ll float64
	if alpha != nil {
		ll = m.alphaStart(alpha[:ns], emit)
	}
	for i := 1; i < n; i++ {
		prev := o.StartInterval
		o = obs(i)
		d, err := gapAt(prev, o.StartInterval, i)
		if err != nil {
			return forwardResult{}, err
		}
		a, logA, band := m.powCache.Power(d)
		m.emissionRowInto(emit, o)
		var bk []int
		if back != nil {
			bk = back[i*ns : (i+1)*ns]
		}
		viterbiStep(next, bk, score, emit, logA, band)
		score, next = next, score
		if alpha != nil {
			sc.stepA[i], sc.stepBand[i] = a, band
			ll = alphaStep(ll, alpha[i*ns:(i+1)*ns], alpha[(i-1)*ns:i*ns], emit, a, band)
		}
	}
	last, best := mathx.ArgMax(score)
	return forwardResult{last: last, best: best, ll: ll}, nil
}

// alphaStart writes the first chunk's α row from its log-emission row
// under the uniform initial distribution and returns the
// log-likelihood so far.
func (m *Model) alphaStart(a0, logE []float64) float64 {
	shift := rescaleMax(logE)
	u := m.initMass()
	for i, v := range logE {
		a0[i] = u * math.Exp(v-shift)
	}
	return addScale(0, mathx.Normalize(a0), shift)
}

// alphaStep writes α's row for one chunk from the previous row, the
// step into the chunk and its log-emission row, and returns ll advanced
// by the chunk's scale:
//
//	pred[j] = Σ_i α_{n−1}(i)·A^Δ(i, j) · exp(logE[j] − max logE), normalized.
func alphaStep(ll float64, pred, prev, logE []float64, a *mathx.Matrix, band mathx.Band) float64 {
	shift := rescaleMax(logE)
	a.VecMulInto(pred, prev, band)
	for j, v := range logE {
		pred[j] *= math.Exp(v - shift)
	}
	return addScale(ll, mathx.Normalize(pred), shift)
}

// rescaleMax returns the largest entry of a log-emission row, by which
// the row is shifted before exp() so that it cannot underflow even when
// every state is a poor fit: only ratios matter once α is normalized,
// and the shift is re-added to the log-likelihood. A row of −Inf
// returns −Inf.
func rescaleMax(logE []float64) float64 {
	maxLog := mathx.NegInf
	for _, v := range logE {
		if v > maxLog {
			maxLog = v
		}
	}
	return maxLog
}

// addScale adds one position's forward normalizer and emission shift to
// the running log-likelihood; a normalizer that is not positive makes
// it −Inf.
func addScale(ll, scale, shift float64) float64 {
	if scale > 0 {
		ll += math.Log(scale)
	} else {
		ll = mathx.NegInf
	}
	return ll + shift
}
