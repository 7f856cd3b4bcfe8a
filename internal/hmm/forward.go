package hmm

import (
	"math"

	"veritas/internal/mathx"
)

// Posterior holds the smoothed distributions produced by the
// forward–backward variant (paper Algorithm 2). The marginal and
// pairwise tables are stored as row-major slabs — Gamma as N×S, Pair as
// (N-1)×S×S — carved from the model's scratch arena when one is
// attached; access them through Gamma/Pair/PairAt.
type Posterior struct {
	gamma []float64 // gamma[n*S+i] = P(C_sn = iε | Y_1:N, W_s1:N, S_1:N)
	pair  []float64 // pair[(n*S+i)*S+j] = Γ_{i,j,n} (paper Equation (6))
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

// Pair returns the S×S row-major pairwise posterior slab for the
// (n, n+1) chunk pair, n = 0..N-2: Pair(n)[i*S+j] = Γ_{i,j,n}.
func (p *Posterior) Pair(n int) []float64 {
	return p.pair[n*p.ns*p.ns : (n+1)*p.ns*p.ns]
}

// PairAt returns Γ_{i,j,n} = P(C_sn = iε, C_sn+1 = jε | …).
func (p *Posterior) PairAt(n, i, j int) float64 {
	return p.pair[(n*p.ns+i)*p.ns+j]
}

// ForwardBackward runs the scaled forward–backward recursion with the
// embedded transitions A^Δn and the f-based emissions, returning the
// marginal and pairwise posteriors the capacity sampler needs. With a
// scratch arena attached the returned posterior points into the arena
// (see the Scratch lifetime contract).
func (m *Model) ForwardBackward(obs []Observation) (*Posterior, error) {
	if len(obs) == 0 {
		return nil, ErrNoObservations
	}
	sc := m.scratch()
	sc.chunkSlabs(len(obs), len(m.states))
	if err := gapsInto(sc.gaps, obs); err != nil {
		return nil, err
	}
	m.emissionTableInto(sc.emitLog, obs)
	return m.forwardBackwardInto(sc, len(obs)), nil
}

// forwardBackwardInto is the recursion body. It expects sc.chunkSlabs
// sized for (N, S) and sc.gaps/sc.emitLog filled, and performs exactly
// the float operations of the original allocating implementation, in
// the same order — only the buffers' homes changed — so results are
// bit-identical.
func (m *Model) forwardBackwardInto(sc *Scratch, N int) *Posterior {
	ns := len(m.states)
	d := sc.gaps

	// Rescale emissions per chunk so exp() cannot underflow even when
	// every state is a poor fit: only ratios matter once alpha/beta are
	// normalized, and the discarded max factors are re-added to the
	// log-likelihood.
	for n := 0; n < N; n++ {
		logRow := sc.emitLog[n*ns : (n+1)*ns]
		maxLog := mathx.NegInf
		for _, v := range logRow {
			if v > maxLog {
				maxLog = v
			}
		}
		sc.shift[n] = maxLog
		row := sc.emit[n*ns : (n+1)*ns]
		for i, v := range logRow {
			row[i] = math.Exp(v - maxLog)
		}
	}

	alphaRow := func(n int) []float64 { return sc.alpha[n*ns : (n+1)*ns] }
	betaRow := func(n int) []float64 { return sc.beta[n*ns : (n+1)*ns] }
	emitRow := func(n int) []float64 { return sc.emit[n*ns : (n+1)*ns] }

	a0 := alphaRow(0)
	e0 := emitRow(0)
	for i := 0; i < ns; i++ {
		a0[i] = m.initDist[i] * e0[i]
	}
	sc.scale[0] = mathx.Normalize(a0)

	for n := 1; n < N; n++ {
		a := m.powCache.Pow(d[n])
		pred := alphaRow(n)
		a.VecMulInto(pred, alphaRow(n-1)) // Σ_i alpha[n-1][i] A^Δ[i][j]
		en := emitRow(n)
		for j := 0; j < ns; j++ {
			pred[j] *= en[j]
		}
		sc.scale[n] = mathx.Normalize(pred)
	}

	bLast := betaRow(N - 1)
	for i := range bLast {
		bLast[i] = 1
	}
	for n := N - 2; n >= 0; n-- {
		a := m.powCache.Pow(d[n+1])
		row := betaRow(n)
		// row[i] = Σ_j A^Δ[i][j] emit[n+1][j] beta[n+1][j] / scale[n+1]
		weighted := sc.weighted
		eNext, bNext := emitRow(n+1), betaRow(n+1)
		for j := 0; j < ns; j++ {
			weighted[j] = eNext[j] * bNext[j]
		}
		for i := 0; i < ns; i++ {
			var s float64
			arow := a.Row(i)
			for j := 0; j < ns; j++ {
				s += arow[j] * weighted[j]
			}
			if sc.scale[n+1] > 0 {
				s /= sc.scale[n+1]
			}
			row[i] = s
		}
	}

	post := &Posterior{
		gamma: sc.gamma[:N*ns],
		pair:  sc.pair[:(N-1)*ns*ns],
		n:     N,
		ns:    ns,
	}
	for n := 0; n < N; n++ {
		g := post.Gamma(n)
		an, bn := alphaRow(n), betaRow(n)
		for i := 0; i < ns; i++ {
			g[i] = an[i] * bn[i]
		}
		mathx.Normalize(g)
	}
	for n := 0; n < N-1; n++ {
		a := m.powCache.Pow(d[n+1])
		pair := post.Pair(n)
		an, eNext, bNext := alphaRow(n), emitRow(n+1), betaRow(n+1)
		var total float64
		for i := 0; i < ns; i++ {
			row := pair[i*ns : (i+1)*ns]
			arow := a.Row(i)
			for j := 0; j < ns; j++ {
				v := an[i] * arow[j] * eNext[j] * bNext[j]
				row[j] = v
				total += v
			}
		}
		if total > 0 {
			for i := 0; i < ns; i++ {
				row := pair[i*ns : (i+1)*ns]
				for j := 0; j < ns; j++ {
					row[j] /= total
				}
			}
		}
	}

	var ll float64
	for n := 0; n < N; n++ {
		if sc.scale[n] > 0 {
			ll += math.Log(sc.scale[n])
		} else {
			ll = mathx.NegInf
		}
		ll += sc.shift[n]
	}
	post.LogLikelihood = ll
	return post
}
