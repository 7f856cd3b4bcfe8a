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
// fixed tridiagonal prior.

// IntervalPosterior holds per-interval smoothed distributions. The
// marginals are stored as a T×S row-major slab (carved from the model's
// scratch arena when one is attached); access them through Gamma.
type IntervalPosterior struct {
	gamma []float64 // gamma[t*S+i] = P(C_t = iε | all observations)
	ns    int
	// LogLikelihood is log P(Y_1:N | W, S) under the interval chain.
	LogLikelihood float64
	// T is the number of intervals covered.
	T int
}

// Gamma returns the marginal posterior over states for interval t:
// Gamma(t)[i] = P(C_t = iε | all observations), t = 0..T-1.
func (p *IntervalPosterior) Gamma(t int) []float64 {
	return p.gamma[t*p.ns : (t+1)*p.ns]
}

// intervalEmissionsInto groups the per-chunk log emissions by start
// interval into the T×S slab sc.intLogE:
// logE[t*S+i] = Σ_{n: s_n ∈ interval t} log P(Y_n | W, S, C=iε).
// Intervals with no chunks contribute zeros (emission probability 1).
// It sizes sc's interval slabs as a side effect and returns T.
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
	logE := sc.intLogE
	for i := range logE {
		logE[i] = 0
	}
	for _, o := range obs {
		row := logE[o.StartInterval*ns : (o.StartInterval+1)*ns]
		for i := 0; i < ns; i++ {
			row[i] += m.EmissionLogProb(o, i)
		}
	}
	return T, nil
}

// IntervalForwardBackward runs scaled forward–backward over the full
// interval chain. With a scratch arena attached the returned posterior
// points into the arena (see the Scratch lifetime contract).
func (m *Model) IntervalForwardBackward(obs []Observation) (*IntervalPosterior, error) {
	sc := m.scratch()
	T, err := m.intervalEmissionsInto(sc, obs)
	if err != nil {
		return nil, err
	}
	if err := m.intervalPasses(sc, T, m.trans); err != nil {
		return nil, err
	}
	ns := len(m.states)
	post := &IntervalPosterior{gamma: sc.intGamma[:T*ns], ns: ns, T: T}
	for t := 0; t < T; t++ {
		g := post.Gamma(t)
		at := sc.intAlpha[t*ns : (t+1)*ns]
		bt := sc.intBeta[t*ns : (t+1)*ns]
		for i := 0; i < ns; i++ {
			g[i] = at[i] * bt[i]
		}
		mathx.Normalize(g)
	}
	var ll float64
	for t := 0; t < T; t++ {
		if sc.intScale[t] > 0 {
			ll += math.Log(sc.intScale[t])
		} else {
			ll = mathx.NegInf
		}
		ll += sc.intShift[t]
	}
	post.LogLikelihood = ll
	return post, nil
}

// intervalPasses runs the scaled alpha/beta recursions over T intervals
// with transition matrix a, reading the log-emission slab sc.intLogE
// and filling sc.intEmit/intAlpha/intBeta/intScale/intShift. The float
// operations match the original allocating implementation exactly.
func (m *Model) intervalPasses(sc *Scratch, T int, a *mathx.Matrix) error {
	ns := len(m.states)
	for t := 0; t < T; t++ {
		logRow := sc.intLogE[t*ns : (t+1)*ns]
		maxLog := mathx.NegInf
		for _, v := range logRow {
			if v > maxLog {
				maxLog = v
			}
		}
		if math.IsInf(maxLog, -1) {
			// No chunk in this interval and somehow -Inf rows: treat as
			// uninformative.
			maxLog = 0
		}
		sc.intShift[t] = maxLog
		row := sc.intEmit[t*ns : (t+1)*ns]
		for i, v := range logRow {
			row[i] = math.Exp(v - maxLog)
		}
	}

	alphaRow := func(t int) []float64 { return sc.intAlpha[t*ns : (t+1)*ns] }
	betaRow := func(t int) []float64 { return sc.intBeta[t*ns : (t+1)*ns] }
	emitRow := func(t int) []float64 { return sc.intEmit[t*ns : (t+1)*ns] }

	a0, e0 := alphaRow(0), emitRow(0)
	for i := 0; i < ns; i++ {
		a0[i] = m.initDist[i] * e0[i]
	}
	sc.intScale[0] = mathx.Normalize(a0)
	for t := 1; t < T; t++ {
		pred := alphaRow(t)
		a.VecMulInto(pred, alphaRow(t-1))
		et := emitRow(t)
		for j := 0; j < ns; j++ {
			pred[j] *= et[j]
		}
		sc.intScale[t] = mathx.Normalize(pred)
		if sc.intScale[t] == 0 {
			return fmt.Errorf("hmm: interval chain died at t=%d (no state has support)", t)
		}
	}

	bLast := betaRow(T - 1)
	for i := range bLast {
		bLast[i] = 1
	}
	for t := T - 2; t >= 0; t-- {
		row := betaRow(t)
		weighted := sc.weighted
		eNext, bNext := emitRow(t+1), betaRow(t+1)
		for j := 0; j < ns; j++ {
			weighted[j] = eNext[j] * bNext[j]
		}
		for i := 0; i < ns; i++ {
			var s float64
			arow := a.Row(i)
			for j := 0; j < ns; j++ {
				s += arow[j] * weighted[j]
			}
			row[i] = s / sc.intScale[t+1]
		}
	}
	return nil
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
	logE := sc.intLogE
	a := m.trans.Clone()
	var lls []float64

	for iter := 0; iter < iters; iter++ {
		if err := m.intervalPasses(sc, T, a); err != nil {
			return nil, err
		}
		var ll float64
		for t := 0; t < T; t++ {
			ll += math.Log(sc.intScale[t]) + sc.intShift[t]
		}
		lls = append(lls, ll)

		// E step: expected transition counts xi and state visits. The
		// xi accumulator is freshly allocated because it becomes the
		// next iteration's transition matrix (and, on the last
		// iteration, the fitted model's — it must not live in scratch).
		num := mathx.NewMatrix(ns, ns)
		den := sc.emDen
		for i := range den {
			den[i] = 0
		}
		emitNext := sc.emitNext
		for t := 0; t < T-1; t++ {
			// Reconstruct scaled emissions for interval t+1.
			logNext := logE[(t+1)*ns : (t+2)*ns]
			maxLog := mathx.NegInf
			for _, v := range logNext {
				if v > maxLog {
					maxLog = v
				}
			}
			if math.IsInf(maxLog, -1) {
				maxLog = 0
			}
			for j := 0; j < ns; j++ {
				emitNext[j] = math.Exp(logNext[j] - maxLog)
			}
			alphaT := sc.intAlpha[t*ns : (t+1)*ns]
			betaNext := sc.intBeta[(t+1)*ns : (t+2)*ns]
			// Two passes: first the normalizer, then accumulation.
			var total float64
			for i := 0; i < ns; i++ {
				ai := alphaT[i]
				if ai == 0 {
					continue
				}
				arow := a.Row(i)
				for j := 0; j < ns; j++ {
					total += ai * arow[j] * emitNext[j] * betaNext[j]
				}
			}
			if total <= 0 {
				continue
			}
			for i := 0; i < ns; i++ {
				ai := alphaT[i]
				if ai == 0 {
					continue
				}
				arow := a.Row(i)
				for j := 0; j < ns; j++ {
					xi := ai * arow[j] * emitNext[j] * betaNext[j] / total
					num.Data[i*ns+j] += xi
					den[i] += xi
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

	cfg := m.cfg
	fitted, err := New(cfg)
	if err != nil {
		return nil, err
	}
	fitted.trans = a
	fitted.powCache = mathx.NewPowerCache(a)
	fitted.sc = m.sc
	return &FitResult{Model: fitted, LogLikelihoods: lls}, nil
}
