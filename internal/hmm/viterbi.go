package hmm

import (
	"math"

	"veritas/internal/mathx"
)

// viterbiInto returns the maximum-likelihood GTBW state index for every
// chunk, along with the log-likelihood of that assignment — the paper's
// Algorithm 3. It differs from textbook Viterbi in one way: the
// transition between chunks n-1 and n uses A^Δn, the Δn-step power of
// the per-interval transition matrix, because chunk starts are embedded
// in wall-clock δ-intervals (Figure 4 of the paper). Each state's
// predecessors are searched over the rows of A^Δn's band that reach it;
// the band comes from the linear power, where a zero is a zero (in the
// log power, log 1 = 0 is a real entry).
//
// It expects sc.inferSlabs sized for (N, S) and sc.gaps, sc.stepBand
// and sc.emitLog filled; back-pointers live in sc.back (N×S row-major)
// and the returned path in sc.path.
func (m *Model) viterbiInto(sc *Scratch, N int) ([]int, float64) {
	ns := m.ns
	d := sc.gaps

	// score[i] = best log-prob of any path ending in state i at chunk n.
	score, next := sc.cur, sc.next
	m.viterbiStart(score, sc.emitLog[:ns])
	for n := 1; n < N; n++ {
		back := sc.back[n*ns : (n+1)*ns] // back[j] = predecessor of j at chunk n
		viterbiStep(next, back, score, sc.emitLog[n*ns:(n+1)*ns], m.powCache.PowLog(d[n]), sc.stepBand[n])
		score, next = next, score
	}

	bestI, bestV := mathx.ArgMax(score)
	path := sc.path[:N]
	path[N-1] = bestI
	for n := N - 1; n > 0; n-- {
		path[n-1] = sc.back[n*ns+path[n]]
	}
	return path, bestV
}

// LastViterbiState returns the last entry of the Viterbi path Infer
// would return for the n observations obs(0) … obs(n−1) — the state the
// interventional query of paper §4.4 reads — bit for bit, ties
// included. It runs viterbiInto's max-product recursion forward and
// keeps only what the next chunk needs: two score vectors and one row
// of log-emissions, filled per chunk by emissionRowInto. Nothing is
// indexed by chunk (no emission table, back-pointers, α/β pass,
// posterior or samples), and observations are read one at a time, in
// order, so a caller may compute each on demand instead of holding the
// sequence: storage is O(S) whatever n is. It refuses what Infer
// refuses, with Infer's errors (an out-of-order chunk when the
// recursion reaches it, where Infer checks every gap first). With a
// scratch arena attached it allocates nothing once the arena holds
// S-vectors, and nothing it returns points into the arena.
func (m *Model) LastViterbiState(n int, obs func(i int) Observation) (int, error) {
	if n <= 0 {
		return 0, ErrNoObservations
	}
	sc := m.scratch()
	score, next, emit := sc.lastStateSlabs(m.ns)
	o := obs(0)
	m.emissionRowInto(emit, o)
	m.viterbiStart(score, emit)
	for i := 1; i < n; i++ {
		prev := o.StartInterval
		o = obs(i)
		d, err := gapAt(prev, o.StartInterval, i)
		if err != nil {
			return 0, err
		}
		_, band := m.powCache.PowBand(d)
		m.emissionRowInto(emit, o)
		viterbiStep(next, nil, score, emit, m.powCache.PowLog(d), band)
		score, next = next, score
	}
	best, _ := mathx.ArgMax(score)
	return best, nil
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
