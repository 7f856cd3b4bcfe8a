package hmm

import (
	"fmt"
	"math"

	"veritas/internal/mathx"
)

// Posterior holds the smoothed marginals produced by the forward–backward
// variant (paper Algorithm 2), stored as one N×S row-major slab carved
// from the model's scratch arena when one is attached. The pairwise
// posterior Γ of paper Equation (6) is never materialised: the capacity
// sampler computes the one column of it that each step reads.
type Posterior struct {
	gamma []float64 // gamma[n*S+i] = P(C_sn = iε | Y_1:N, W_s1:N, S_1:N)
	n, ns int
	// LogLikelihood is log P(Y_1:N | W, S) under the model.
	LogLikelihood float64
}

// Len returns the number of chunks N the posterior covers.
func (p *Posterior) Len() int { return p.n }

// Gamma returns the marginal posterior over states for chunk n:
// Gamma(n)[i] = P(C_sn = iε | all observations).
func (p *Posterior) Gamma(n int) []float64 {
	return p.gamma[n*p.ns : (n+1)*p.ns]
}

// alphaBeta is the package's one scaled forward–backward pass (paper
// Algorithm 2): it rescales the log-emissions in sc.emitLog into
// sc.emit/sc.shift, fills sc.alpha, sc.scale and sc.beta for a chain of
// P positions, and returns log P(Y_1:N | W, S). It expects sc.passSlabs
// sized for (P, S).
//
// The step matrix is the only thing that tells the two hidden chains
// apart. With fixed == nil the positions are chunks and the step into
// chunk n is A^Δn (sc.stepA[n], looked up by Infer) — Infer's embedded
// chain. With fixed set the positions are δ-intervals and every step is
// that matrix, with fixedBand its mathx.BandOf — the chain
// FitTransitions re-estimates. Both sweeps run over the step's Band
// only: the terms they skip are exact zeros. The interval chain has
// positions that saw no usable evidence, so it alone shifts an all-−Inf
// emission row by 0 (treating it as uninformative) and reports a forward
// scale of 0 as an error; the chunk chain guards its divisions by
// scale > 0 instead.
func (m *Model) alphaBeta(sc *Scratch, P int, fixed *mathx.Matrix, fixedBand mathx.Band) (float64, error) {
	ns := m.ns
	intervals := fixed != nil
	step := func(p int) (*mathx.Matrix, mathx.Band) {
		if intervals {
			return fixed, fixedBand
		}
		return sc.stepA[p], sc.stepBand[p]
	}
	row := func(slab []float64, p int) []float64 { return slab[p*ns : (p+1)*ns] }

	// Rescale emissions per position so exp() cannot underflow even when
	// every state is a poor fit: only ratios matter once alpha/beta are
	// normalized, and the discarded max factors are re-added to the
	// log-likelihood.
	for p := 0; p < P; p++ {
		logRow := row(sc.emitLog, p)
		maxLog := mathx.NegInf
		for _, v := range logRow {
			if v > maxLog {
				maxLog = v
			}
		}
		if intervals && math.IsInf(maxLog, -1) {
			maxLog = 0
		}
		sc.shift[p] = maxLog
		e := row(sc.emit, p)
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
	for p := 1; p < P; p++ {
		a, band := step(p)
		pred := row(sc.alpha, p)
		for j := range pred {
			pred[j] = 0
		}
		for i, ai := range row(sc.alpha, p-1) { // pred[j] = Σ_i alpha[p-1][i] A[i][j]
			if ai == 0 {
				continue
			}
			arow := a.Row(i)
			for j := band.RowLo[i]; j < band.RowHi[i]; j++ {
				pred[j] += ai * arow[j]
			}
		}
		ep := row(sc.emit, p)
		for j := 0; j < ns; j++ {
			pred[j] *= ep[j]
		}
		sc.scale[p] = mathx.Normalize(pred)
		if intervals && sc.scale[p] == 0 {
			return 0, fmt.Errorf("hmm: interval chain died at t=%d (no state has support)", p)
		}
	}

	bLast := row(sc.beta, P-1)
	for i := range bLast {
		bLast[i] = 1
	}
	for p := P - 2; p >= 0; p-- {
		a, band := step(p + 1)
		b := row(sc.beta, p)
		// b[i] = Σ_j A[i][j] emit[p+1][j] beta[p+1][j] / scale[p+1]
		weighted := sc.weighted
		eNext, bNext := row(sc.emit, p+1), row(sc.beta, p+1)
		for j := 0; j < ns; j++ {
			weighted[j] = eNext[j] * bNext[j]
		}
		for i := 0; i < ns; i++ {
			var s float64
			arow := a.Row(i)
			for j := band.RowLo[i]; j < band.RowHi[i]; j++ {
				s += arow[j] * weighted[j]
			}
			if sc.scale[p+1] > 0 {
				s /= sc.scale[p+1]
			}
			b[i] = s
		}
	}

	var ll float64
	for p := 0; p < P; p++ {
		if sc.scale[p] > 0 {
			ll += math.Log(sc.scale[p])
		} else {
			ll = mathx.NegInf
		}
		ll += sc.shift[p]
	}
	return ll, nil
}

// pairInto sums the unnormalized pairwise posterior of positions
// (p, p+1) under step matrix a — α_p(i)·a[i][j]·e_{p+1}(j)·β_{p+1}(j),
// paper Equation (6) before its normalizer — over a's band, row by row,
// and returns the sum. The cells off the band are exact zeros, so the
// sum is the dense one bit for bit. The chunk chain keeps only the sum,
// one per chunk pair, for the sampler's columns (dst nil). The EM E-step
// also has every cell written into the S×S slab dst, zeros included,
// and divides by the sum as it accumulates expected transition counts.
func (sc *Scratch) pairInto(dst []float64, p int, a *mathx.Matrix, band mathx.Band) float64 {
	ns := a.Rows
	ap := sc.alpha[p*ns : (p+1)*ns]
	eNext, bNext := sc.emit[(p+1)*ns:(p+2)*ns], sc.beta[(p+1)*ns:(p+2)*ns]
	var total float64
	for i := 0; i < ns; i++ {
		var drow []float64
		if dst != nil {
			drow = dst[i*ns : (i+1)*ns]
			clear(drow)
		}
		arow := a.Row(i)
		for j := band.RowLo[i]; j < band.RowHi[i]; j++ {
			v := ap[i] * arow[j] * eNext[j] * bNext[j]
			if drow != nil {
				drow[j] = v
			}
			total += v
		}
	}
	return total
}

// posteriorInto turns the chunk chain's finished α/β pass into the
// marginals, carved from sc.gamma, and the per-pair normalizers
// sc.total the capacity sampler divides its columns by.
func (m *Model) posteriorInto(sc *Scratch, N int, ll float64) *Posterior {
	ns := m.ns
	post := &Posterior{
		gamma:         sc.gamma[:N*ns],
		n:             N,
		ns:            ns,
		LogLikelihood: ll,
	}
	for n := 0; n < N; n++ {
		g := post.Gamma(n)
		an, bn := sc.alpha[n*ns:(n+1)*ns], sc.beta[n*ns:(n+1)*ns]
		for i := 0; i < ns; i++ {
			g[i] = an[i] * bn[i]
		}
		mathx.Normalize(g)
	}
	for n := 0; n < N-1; n++ {
		sc.total[n] = sc.pairInto(nil, n, sc.stepA[n+1], sc.stepBand[n+1])
	}
	return post
}
