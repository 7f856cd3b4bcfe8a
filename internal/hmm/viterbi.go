package hmm

import (
	"math"

	"veritas/internal/mathx"
)

// ViterbiPath returns the maximum-likelihood GTBW state index for every
// chunk, along with the log-likelihood of that assignment — the paper's
// Algorithm 3 — as the chunk chain's forward pass with back-pointers
// followed by the trace-back. It differs from textbook Viterbi in one
// way: the transition between chunks n-1 and n uses A^Δn (see forward).
// Each state's predecessors are searched over the rows of A^Δn's band
// that reach it; the band comes from the linear power, where a zero is a
// zero (in the log power, log 1 = 0 is a real entry).
//
// The back-pointers (N×S) and the path are allocated here, not carved
// from an attached arena: the path is the caller's, and the arena keeps
// no slab for it. It refuses what Infer refuses, with Infer's errors,
// save a negative sample count, which it does not take.
func (m *Model) ViterbiPath(obs []Observation) ([]int, float64, error) {
	N := len(obs)
	if N == 0 {
		return nil, 0, ErrNoObservations
	}
	back := make([]int, N*m.ns)
	res, err := m.forward(m.scratch(), N, func(i int) Observation { return obs[i] }, nil, back)
	if err != nil {
		return nil, 0, err
	}
	path := make([]int, N)
	path[N-1] = res.last
	for n := N - 1; n > 0; n-- {
		path[n-1] = back[n*m.ns+path[n]]
	}
	return path, res.best, nil
}

// LastViterbiState returns the last entry of the Viterbi path for the n
// observations obs(0) … obs(n−1) — the state the interventional query of
// paper §4.4 reads, and the one Infer pins every sample's last chunk to —
// bit for bit, ties included. It runs the chunk chain's forward pass
// with neither α nor back-pointers, reading observations one at a time,
// in order, so a caller may compute each on demand instead of holding
// the sequence: storage is O(S) whatever n is. It refuses what Infer
// refuses, with Infer's errors. With a scratch arena attached it
// allocates nothing once the arena holds S-vectors, and nothing it
// returns points into the arena.
func (m *Model) LastViterbiState(n int, obs func(i int) Observation) (int, error) {
	if n <= 0 {
		return 0, ErrNoObservations
	}
	res, err := m.forward(m.scratch(), n, obs, nil, nil)
	return res.last, err
}

// viterbiStart fills score with the first chunk's Viterbi scores: the
// log initial distribution plus that chunk's log-emission row.
func (m *Model) viterbiStart(score, emit []float64) {
	logU := math.Log(m.initMass())
	for i := range score {
		score[i] = logU + emit[i]
	}
}

// viterbiStep advances the max-product recursion by one chunk:
//
//	next[j] = max_i (score[i] + log A^Δ(i, j)) + emit[j],
//
// with i over the rows of A^Δ's band that reach j, −Inf log entries
// skipped and the first maximum winning a tie. With back non-nil it
// also records the winning predecessor of every j.
func viterbiStep(next []float64, back []int, score, emit []float64, logA *mathx.Matrix, band mathx.Band) {
	for j := range next {
		bestI, bestV := 0, mathx.NegInf
		for i := band.ColLo[j]; i < band.ColHi[j]; i++ {
			la := logA.At(i, j)
			if math.IsInf(la, -1) {
				continue
			}
			v := score[i] + la
			if v > bestV {
				bestI, bestV = i, v
			}
		}
		next[j] = bestV + emit[j]
		if back != nil {
			back[j] = bestI
		}
	}
}
