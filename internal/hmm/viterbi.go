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
	ns := len(m.states)
	d := sc.gaps

	// score[i] = best log-prob of any path ending in state i at chunk n.
	score, next := sc.cur, sc.next
	for i := 0; i < ns; i++ {
		score[i] = math.Log(m.initDist[i]) + sc.emitLog[i]
	}
	for n := 1; n < N; n++ {
		back := sc.back[n*ns : (n+1)*ns] // back[j] = predecessor of j at chunk n
		emitN := sc.emitLog[n*ns : (n+1)*ns]
		band := sc.stepBand[n]
		logA := m.powCache.PowLog(d[n])
		for j := 0; j < ns; j++ {
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
			next[j] = bestV + emitN[j]
			back[j] = bestI
		}
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
