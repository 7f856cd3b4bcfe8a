package hmm

import (
	"errors"
	"fmt"
	"math"

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
// fixed tridiagonal prior. It is the package's only backward pass: the
// scaled α/β recursion (alphaBeta) over T positions with one fixed step
// matrix, and the pairwise posterior (pairInto) its E-step reads.

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
	ns := m.ns
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
	ns := m.ns
	xi, den := sc.pair, sc.emDen
	a := m.powCache.Pow(1).Clone()
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

	// The fitted model shares the grid and initial distribution; its
	// per-session matrix gets a private power cache, never an entry in
	// the process-wide registry.
	fitted := *m
	fitted.powCache = mathx.NewPowerCache(a)
	return &FitResult{Model: &fitted, LogLikelihoods: lls}, nil
}

// alphaBeta is the interval chain's scaled forward–backward pass (paper
// Algorithm 2 with every step the fixed matrix a, whose band is band):
// it rescales the log-emissions in sc.emitLog into sc.emit/sc.shift,
// fills sc.alpha, sc.scale and sc.beta for T positions, and returns the
// chain's log-likelihood. It expects sc.passSlabs sized for (T, S). An
// interval may carry no usable evidence, so an all-−Inf emission row is
// shifted by 0 (treated as uninformative), and a forward scale of 0 is
// an error naming the interval. Both sweeps run over the band only: the
// terms they skip are exact zeros.
func (m *Model) alphaBeta(sc *Scratch, T int, a *mathx.Matrix, band mathx.Band) (float64, error) {
	ns := m.ns
	row := func(slab []float64, t int) []float64 { return slab[t*ns : (t+1)*ns] }

	for t := 0; t < T; t++ {
		logRow := row(sc.emitLog, t)
		maxLog := rescaleMax(logRow)
		if math.IsInf(maxLog, -1) {
			maxLog = 0
		}
		sc.shift[t] = maxLog
		e := row(sc.emit, t)
		for i, v := range logRow {
			e[i] = math.Exp(v - maxLog)
		}
	}

	a0, e0 := row(sc.alpha, 0), row(sc.emit, 0)
	u := m.initMass()
	for i := 0; i < ns; i++ {
		a0[i] = u * e0[i]
	}
	sc.scale[0] = mathx.Normalize(a0)
	for t := 1; t < T; t++ {
		pred := row(sc.alpha, t)
		a.VecMulInto(pred, row(sc.alpha, t-1), band)
		et := row(sc.emit, t)
		for j := 0; j < ns; j++ {
			pred[j] *= et[j]
		}
		sc.scale[t] = mathx.Normalize(pred)
		if sc.scale[t] == 0 {
			return 0, fmt.Errorf("hmm: interval chain died at t=%d (no state has support)", t)
		}
	}

	bLast := row(sc.beta, T-1)
	for i := range bLast {
		bLast[i] = 1
	}
	for t := T - 2; t >= 0; t-- {
		b := row(sc.beta, t)
		// b[i] = Σ_j A[i][j] emit[t+1][j] beta[t+1][j] / scale[t+1]
		weighted := sc.weighted
		eNext, bNext := row(sc.emit, t+1), row(sc.beta, t+1)
		for j := 0; j < ns; j++ {
			weighted[j] = eNext[j] * bNext[j]
		}
		for i := 0; i < ns; i++ {
			var s float64
			arow := a.Row(i)
			for j := band.RowLo[i]; j < band.RowHi[i]; j++ {
				s += arow[j] * weighted[j]
			}
			if sc.scale[t+1] > 0 {
				s /= sc.scale[t+1]
			}
			b[i] = s
		}
	}

	var ll float64
	for t := 0; t < T; t++ {
		ll = addScale(ll, sc.scale[t], sc.shift[t])
	}
	return ll, nil
}

// pairInto writes the unnormalized pairwise posterior of positions
// (t, t+1) under step matrix a — α_t(i)·a[i][j]·e_{t+1}(j)·β_{t+1}(j),
// paper Equation (6) before its normalizer — into the S×S slab dst,
// zeros off a's band included, and returns the sum of its cells. The
// cells off the band are exact zeros, so the sum is the dense one bit
// for bit. The EM E-step divides by the sum as it accumulates expected
// transition counts.
func (sc *Scratch) pairInto(dst []float64, t int, a *mathx.Matrix, band mathx.Band) float64 {
	ns := a.Rows
	at := sc.alpha[t*ns : (t+1)*ns]
	eNext, bNext := sc.emit[(t+1)*ns:(t+2)*ns], sc.beta[(t+1)*ns:(t+2)*ns]
	var total float64
	for i := 0; i < ns; i++ {
		drow := dst[i*ns : (i+1)*ns]
		clear(drow)
		arow := a.Row(i)
		for j := band.RowLo[i]; j < band.RowHi[i]; j++ {
			v := at[i] * arow[j] * eNext[j] * bNext[j]
			drow[j] = v
			total += v
		}
	}
	return total
}
