package hmm

import (
	"errors"

	"veritas/internal/mathx"
)

// This file implements the interval-level view of the EHMM: instead of
// embedding transitions between chunk start times (A^Δn), the hidden
// chain runs over every δ-interval 0..T−1 with single-step transitions
// A, and each interval emits the product of the emissions of the chunks
// that start in it (zero, one, or more — exactly the "embedded
// observations" structure of paper §3.2, Figure 4).
//
// The two views agree on the chunk-start marginals; the interval view
// additionally supports exact Baum–Welch re-estimation of the
// transition matrix, offered here as an extension beyond the paper's
// fixed tridiagonal prior. It is the same α/β pass (alphaBeta) over the
// same slabs, with T positions and a fixed step matrix.

// intervalEmissionsInto groups the per-chunk log-emission rows by start
// interval into sc.emitLog, sized here (with the rest of the interval
// chain's slabs) as T×S:
// emitLog[t*S+i] = Σ_{n: s_n ∈ interval t} log P(Y_n | W, S, C=iε).
// Intervals with no chunks contribute zeros (emission probability 1).
// It returns T.
func (m *Model) intervalEmissionsInto(sc *Scratch, obs []Observation) (int, error) {
	if len(obs) == 0 {
		return 0, ErrNoObservations
	}
	sc.gaps = growI(sc.gaps, len(obs))
	if err := gapsInto(sc.gaps, obs); err != nil {
		return 0, err
	}
	T := obs[len(obs)-1].StartInterval + 1
	ns := len(m.states)
	sc.intervalSlabs(T, ns)
	logE := sc.emitLog
	for i := range logE {
		logE[i] = 0
	}
	chunk := sc.weighted // free until the pass's backward sweep
	for _, o := range obs {
		m.emissionRowInto(chunk, o)
		row := logE[o.StartInterval*ns : (o.StartInterval+1)*ns]
		for i, v := range chunk {
			row[i] += v
		}
	}
	return T, nil
}

// FitResult reports one Baum–Welch fit.
type FitResult struct {
	// Model is a new model with the learned transition matrix (the
	// original model is unchanged).
	Model *Model
	// LogLikelihoods[i] is the interval-chain log-likelihood before
	// iteration i (so the slice is non-decreasing for a correct EM).
	LogLikelihoods []float64
}

// FitTransitions learns the transition matrix from observations by
// Baum–Welch EM on the interval chain. This goes beyond the paper,
// which fixes a tridiagonal prior; the experiments' ablations use it to
// quantify what a learned prior buys. Rows are smoothed by adding
// `smoothing` pseudo-count mass spread uniformly so unvisited states
// keep valid distributions.
func (m *Model) FitTransitions(obs []Observation, iters int, smoothing float64) (*FitResult, error) {
	if iters <= 0 {
		return nil, errors.New("hmm: FitTransitions requires iters > 0")
	}
	if smoothing < 0 {
		return nil, errors.New("hmm: smoothing must be non-negative")
	}
	sc := m.scratch()
	T, err := m.intervalEmissionsInto(sc, obs)
	if err != nil {
		return nil, err
	}
	if T < 2 {
		return nil, errors.New("hmm: need at least two intervals to fit transitions")
	}
	ns := len(m.states)
	xi, den := sc.pair, sc.emDen
	a := m.trans.Clone()
	var lls []float64

	for iter := 0; iter < iters; iter++ {
		band := mathx.BandOf(a)
		ll, err := m.alphaBeta(sc, T, a, band)
		if err != nil {
			return nil, err
		}
		lls = append(lls, ll)

		// E step: expected transition counts xi and state visits. The
		// count accumulator is freshly allocated because it becomes the
		// next iteration's transition matrix (and, on the last
		// iteration, the fitted model's — it must not live in scratch).
		num := mathx.NewMatrix(ns, ns)
		for i := range den {
			den[i] = 0
		}
		for t := 0; t < T-1; t++ {
			total := sc.pairInto(xi, t, a, band)
			if total <= 0 {
				continue
			}
			for i := 0; i < ns; i++ {
				for j := 0; j < ns; j++ {
					x := xi[i*ns+j] / total
					num.Data[i*ns+j] += x
					den[i] += x
				}
			}
		}

		// M step with smoothing.
		for i := 0; i < ns; i++ {
			row := num.Row(i)
			for j := 0; j < ns; j++ {
				row[j] += smoothing / float64(ns)
			}
			d := den[i] + smoothing
			if d <= 0 {
				// State never visited: keep the prior row.
				copy(row, a.Row(i))
				continue
			}
			for j := 0; j < ns; j++ {
				row[j] /= d
			}
		}
		num.NormalizeRows()
		a = num
	}

	// The fitted model shares the immutable grid and initial
	// distribution; its per-session matrix gets a private power cache,
	// never an entry in the process-wide registry.
	fitted := *m
	fitted.trans, fitted.powCache = a, mathx.NewPowerCache(a)
	return &FitResult{Model: &fitted, LogLikelihoods: lls}, nil
}
