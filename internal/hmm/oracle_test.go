package hmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"veritas/internal/mathx"
	"veritas/internal/tcp"
)

// This file is the differential oracle for PR 23's single inference
// path (ROADMAP's rule for exactness-preserving rewrites): the two
// forward–backward recursions, the per-cell emission evaluator and the
// Baum–Welch loop as they stood before the chunk chain and the EM
// interval chain were folded into one pass over one set of slabs. The
// function bodies are the parent commit's, verbatim; only their homes
// changed (receivers became parameters, the arena became oracleScratch,
// which keeps the separate int* slabs the production Scratch lost).
// TestOracleBitIdentical compares the production path against them bit
// for bit, and the sampler's draws against theirs wherever no column
// underflowed (oracleSampleInto counts the draws where one did).
//
// The same file holds the dense kernels that the banded rewrite
// replaced, again verbatim: the pair-slab posterior (oraclePosterior),
// Viterbi's search over every predecessor, the sampler that reads a
// column of the materialised pair slab, and ExpectedCapacityAfter over
// the whole row. TestBandedMatchesDense drives them against the banded
// production path. Every power A^Δ they read past A^1 comes from
// densePowers, the power cache's walk before it stepped rows over A's
// band, in loops of this file's own, and the forward step is a dense
// loop here too: no oracle calls the kernels it checks.

type oracleScratch struct {
	pow, powLog                             map[int]*mathx.Matrix // A^Δ and its log for every gap Δ of the session
	emitLog, emit, alpha, beta, gamma, pair []float64
	shift, scale                            []float64
	gaps, back, path                        []int
	weighted, weights, cur, next            []float64

	intLogE, intEmit, intAlpha, intBeta, intGamma []float64
	intShift, intScale                            []float64
	emitNext, emDen                               []float64
}

func (sc *oracleScratch) chunkSlabs(n, s int) {
	sc.emitLog = make([]float64, n*s)
	sc.emit = make([]float64, n*s)
	sc.alpha = make([]float64, n*s)
	sc.beta = make([]float64, n*s)
	sc.gamma = make([]float64, n*s)
	sc.pair = make([]float64, (n-1)*s*s)
	sc.shift = make([]float64, n)
	sc.scale = make([]float64, n)
	sc.gaps = make([]int, n)
	sc.back = make([]int, n*s)
	sc.path = make([]int, n)
	sc.weighted = make([]float64, s)
	sc.weights = make([]float64, s)
	sc.cur = make([]float64, s)
	sc.next = make([]float64, s)
}

func (sc *oracleScratch) intervalSlabs(t, s int) {
	sc.intLogE = make([]float64, t*s)
	sc.intEmit = make([]float64, t*s)
	sc.intAlpha = make([]float64, t*s)
	sc.intBeta = make([]float64, t*s)
	sc.intGamma = make([]float64, t*s)
	sc.intShift = make([]float64, t)
	sc.intScale = make([]float64, t)
	sc.weighted = make([]float64, s)
	sc.emitNext = make([]float64, s)
	sc.emDen = make([]float64, s)
}

func oracleEmissionLogProb(m *Model, obs Observation, i int) float64 {
	est := m.cfg.Estimator
	if est == nil {
		est = tcp.EstimateThroughput
	}
	pred := est(float64(i)*m.cfg.EpsMbps, obs.TCP, obs.SizeBytes)
	return mathx.NormalLogPDF(obs.ThroughputMbps, pred, m.cfg.Sigma)
}

func oracleEmissionTableInto(m *Model, tab []float64, obs []Observation) {
	ns := m.ns
	est := m.cfg.Estimator
	if est == nil {
		est = tcp.EstimateThroughput
	}
	for n, o := range obs {
		row := tab[n*ns : (n+1)*ns]
		for i := 0; i < ns; i++ {
			pred := est(float64(i)*m.cfg.EpsMbps, o.TCP, o.SizeBytes)
			row[i] = mathx.NormalLogPDF(o.ThroughputMbps, pred, m.cfg.Sigma)
		}
	}
}

// oraclePosterior is the parent's Posterior: the marginals and the
// normalised (N-1)×S×S pairwise slab.
type oraclePosterior struct {
	gamma, pair   []float64
	n, ns         int
	LogLikelihood float64
	gaps          []int
	pow           map[int]*mathx.Matrix
}

func (p *oraclePosterior) Len() int              { return p.n }
func (p *oraclePosterior) Gamma(n int) []float64 { return p.gamma[n*p.ns : (n+1)*p.ns] }
func (p *oraclePosterior) Pair(n int) []float64 {
	return p.pair[n*p.ns*p.ns : (n+1)*p.ns*p.ns]
}

func oracleForwardBackwardInto(m *Model, sc *oracleScratch, N int) *oraclePosterior {
	ns := m.ns
	d := sc.gaps

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
		a0[i] = (1 / float64(ns)) * e0[i]
	}
	sc.scale[0] = mathx.Normalize(a0)

	for n := 1; n < N; n++ {
		pred := alphaRow(n)
		denseVecMulInto(pred, alphaRow(n-1), sc.pow[d[n]]) // Σ_i alpha[n-1][i] A^Δ[i][j]
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
		a := sc.pow[d[n+1]]
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

	post := &oraclePosterior{
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
		a := sc.pow[d[n+1]]
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

func oracleIntervalEmissionsInto(m *Model, sc *oracleScratch, obs []Observation) (int, error) {
	if len(obs) == 0 {
		return 0, ErrNoObservations
	}
	sc.gaps = make([]int, len(obs))
	if err := gapsInto(sc.gaps, obs); err != nil {
		return 0, err
	}
	T := obs[len(obs)-1].StartInterval + 1
	ns := m.ns
	sc.intervalSlabs(T, ns)
	logE := sc.intLogE
	for i := range logE {
		logE[i] = 0
	}
	for _, o := range obs {
		row := logE[o.StartInterval*ns : (o.StartInterval+1)*ns]
		for i := 0; i < ns; i++ {
			row[i] += oracleEmissionLogProb(m, o, i)
		}
	}
	return T, nil
}

// oracleIntervalPosterior is the parent's IntervalForwardBackward,
// returning the marginals as a T×S slab.
func oracleIntervalPosterior(m *Model, obs []Observation) (gamma []float64, ll float64, T int, err error) {
	sc := &oracleScratch{}
	T, err = oracleIntervalEmissionsInto(m, sc, obs)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := oracleIntervalPasses(m, sc, T, m.powCache.Pow(1)); err != nil {
		return nil, 0, 0, err
	}
	ns := m.ns
	gamma = sc.intGamma[:T*ns]
	for t := 0; t < T; t++ {
		g := gamma[t*ns : (t+1)*ns]
		at := sc.intAlpha[t*ns : (t+1)*ns]
		bt := sc.intBeta[t*ns : (t+1)*ns]
		for i := 0; i < ns; i++ {
			g[i] = at[i] * bt[i]
		}
		mathx.Normalize(g)
	}
	for t := 0; t < T; t++ {
		if sc.intScale[t] > 0 {
			ll += math.Log(sc.intScale[t])
		} else {
			ll = mathx.NegInf
		}
		ll += sc.intShift[t]
	}
	return gamma, ll, T, nil
}

func oracleIntervalPasses(m *Model, sc *oracleScratch, T int, a *mathx.Matrix) error {
	ns := m.ns
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
		a0[i] = (1 / float64(ns)) * e0[i]
	}
	sc.intScale[0] = mathx.Normalize(a0)
	for t := 1; t < T; t++ {
		pred := alphaRow(t)
		denseVecMulInto(pred, alphaRow(t-1), a)
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

// oracleFitTransitions is the parent's FitTransitions up to the point
// where it wrapped the learned matrix in a Model: it returns that
// matrix and the per-iteration log-likelihoods.
func oracleFitTransitions(m *Model, obs []Observation, iters int, smoothing float64) (*mathx.Matrix, []float64, error) {
	if iters <= 0 {
		return nil, nil, errors.New("hmm: FitTransitions requires iters > 0")
	}
	if smoothing < 0 {
		return nil, nil, errors.New("hmm: smoothing must be non-negative")
	}
	sc := &oracleScratch{}
	T, err := oracleIntervalEmissionsInto(m, sc, obs)
	if err != nil {
		return nil, nil, err
	}
	if T < 2 {
		return nil, nil, errors.New("hmm: need at least two intervals to fit transitions")
	}
	ns := m.ns
	logE := sc.intLogE
	a := m.powCache.Pow(1).Clone()
	var lls []float64

	for iter := 0; iter < iters; iter++ {
		if err := oracleIntervalPasses(m, sc, T, a); err != nil {
			return nil, nil, err
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
	return a, lls, nil
}

// oracleViterbiInto is the parent's viterbiInto: every predecessor of
// every state is searched, skipping −Inf log transitions.
func oracleViterbiInto(m *Model, sc *oracleScratch, N int) ([]int, float64) {
	ns := m.ns
	d := sc.gaps

	// score[i] = best log-prob of any path ending in state i at chunk n.
	score, next := sc.cur, sc.next
	for i := 0; i < ns; i++ {
		score[i] = math.Log(1/float64(ns)) + sc.emitLog[i]
	}
	for n := 1; n < N; n++ {
		back := sc.back[n*ns : (n+1)*ns] // back[j] = predecessor of j at chunk n
		emitN := sc.emitLog[n*ns : (n+1)*ns]
		logA := sc.powLog[d[n]]
		for j := 0; j < ns; j++ {
			bestI, bestV := 0, mathx.NegInf
			for i := 0; i < ns; i++ {
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

// oracleSampleInto is the parent's sampleInto, reading one column of
// the materialised pair slab per step. It returns the number of draws
// whose column underflowed (see columnUnderflows), where the production
// sampler, which reads α_n(i)·A^Δ(i, s) alone, may draw otherwise.
func oracleSampleInto(m *Model, out []int, weights []float64, rng *mathx.Rand, post *oraclePosterior, viterbi []int, alpha []float64) (int, error) {
	N := post.Len()
	if len(viterbi) != N {
		return 0, errors.New("hmm: viterbi path length mismatch")
	}
	ns := m.ns
	underflows := 0
	out[N-1] = viterbi[N-1]
	for n := N - 2; n >= 0; n-- {
		nextState := out[n+1]
		pair := post.Pair(n)
		var total float64
		for i := 0; i < ns; i++ {
			weights[i] = pair[i*ns+nextState]
			total += weights[i]
		}
		if columnUnderflows(weights, alpha[n*ns:(n+1)*ns], post.pow[post.gaps[n+1]], nextState) {
			underflows++
		}
		if total <= 0 {
			copy(weights, post.Gamma(n))
		}
		out[n] = mathx.SampleCategorical(rng, weights)
	}
	return underflows, nil
}

// oracleExpectedCapacityAfter is the parent's ExpectedCapacityAfter,
// summing over the whole row of A^gap, with A^gap from densePowers.
func oracleExpectedCapacityAfter(m *Model, state, gap int) float64 {
	gap = max(gap, 0)
	return oracleRowMean(m, densePowers(m.powCache.Pow(1), gap)[gap], state)
}

// oracleRowMean is the grid's mean under row state of a.
func oracleRowMean(m *Model, a *mathx.Matrix, state int) float64 {
	var e float64
	for j, p := range a.Row(state) {
		e += p * (float64(j) * m.cfg.EpsMbps)
	}
	return e
}

// densePowers returns A^k for every k in ks, a being A^1, from one
// sequential walk — A^0 = I, A^1 = a, A^(p+1) = A^p·a with every term of
// every row summed in order, skipping zeros of A^p — keeping only the
// powers asked for.
func densePowers(a *mathx.Matrix, ks ...int) map[int]*mathx.Matrix {
	want, top := map[int]bool{}, 0
	for _, k := range ks {
		want[k], top = true, max(top, k)
	}
	out := map[int]*mathx.Matrix{}
	cur := mathx.Identity(a.Rows)
	for p := 0; ; p++ {
		if want[p] {
			out[p] = cur
		}
		if p == top {
			return out
		}
		if p == 0 {
			cur = a
			continue
		}
		next := mathx.NewMatrix(a.Rows, a.Cols)
		for i := 0; i < a.Rows; i++ {
			denseVecMulInto(next.Row(i), cur.Row(i), a)
		}
		cur = next
	}
}

// denseVecMulInto is the parent's dense forward step, dst = vᵀ·a, over
// every column of every row where v is not zero.
func denseVecMulInto(dst, v []float64, a *mathx.Matrix) {
	clear(dst)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		for j, av := range a.Row(i) {
			dst[j] += vi * av
		}
	}
}

// denseLog is the element-wise log of a power: zeros map to -Inf.
func denseLog(a *mathx.Matrix) *mathx.Matrix {
	l := mathx.NewMatrix(a.Rows, a.Cols)
	for i, v := range a.Data {
		l.Data[i] = mathx.NegInf
		if v > 0 {
			l.Data[i] = math.Log(v)
		}
	}
	return l
}

// oracleInference is the parent's Inference, carrying the pair slab,
// the pass's slabs (sc) and the count of draws whose column underflowed.
type oracleInference struct {
	Path        []int
	PathLogProb float64
	Post        *oraclePosterior
	Samples     [][]int

	sc         *oracleScratch
	Underflows int
}

// oracleInfer is the parent's Infer, end to end on the oracle kernels:
// gaps, the per-cell emission table, the dense Viterbi, the dense
// forward–backward with its pair slab, and K samples read from it.
func oracleInfer(t *testing.T, m *Model, obs []Observation, k int, seed int64) *oracleInference {
	t.Helper()
	N, ns := len(obs), m.ns
	sc := &oracleScratch{}
	sc.chunkSlabs(N, ns)
	if err := gapsInto(sc.gaps, obs); err != nil {
		t.Fatal(err)
	}
	sc.pow, sc.powLog = densePowers(m.powCache.Pow(1), sc.gaps...), map[int]*mathx.Matrix{}
	for k, a := range sc.pow {
		sc.powLog[k] = denseLog(a)
	}
	oracleEmissionTableInto(m, sc.emitLog, obs)
	path, best := oracleViterbiInto(m, sc, N)
	post := oracleForwardBackwardInto(m, sc, N)
	post.gaps, post.pow = sc.gaps, sc.pow

	inf := &oracleInference{Path: path, PathLogProb: best, Post: post, sc: sc}
	if k > 0 {
		inf.Samples = make([][]int, k)
		rng := mathx.NewRand(seed)
		for s := 0; s < k; s++ {
			inf.Samples[s] = make([]int, N)
			u, err := oracleSampleInto(m, inf.Samples[s], sc.weights, rng, post, path, sc.alpha)
			if err != nil {
				t.Fatal(err)
			}
			inf.Underflows += u
		}
	}
	return inf
}

// requireMatchesOracle asserts the production inference equals the
// oracle's bit for bit: the last Viterbi state and the path's score,
// ViterbiPath's whole path, the log-likelihood and the K samples (the
// oracle's session must have no underflowing column, or the samples
// could differ by design). With the arena the production run used (sc
// non-nil), every α row is compared with the oracle's, and every
// pairwise posterior Γ is rebuilt through pairInto — from that α and
// the oracle's emissions and β — and compared with the oracle's
// materialised slab.
func requireMatchesOracle(t *testing.T, label string, m *Model, sc *Scratch, obs []Observation, got *Inference, want *oracleInference) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	N, ns := len(obs), m.ns
	if !same(got.PathLogProb, want.PathLogProb) {
		t.Errorf("%s: PathLogProb %v, want %v", label, got.PathLogProb, want.PathLogProb)
	}
	if got.Last != want.Path[N-1] {
		t.Fatalf("%s: last Viterbi state %d, want %d", label, got.Last, want.Path[N-1])
	}
	path, best, err := m.ViterbiPath(obs)
	if err != nil {
		t.Fatalf("%s: ViterbiPath: %v", label, err)
	}
	if !same(best, want.PathLogProb) {
		t.Errorf("%s: ViterbiPath score %v, want %v", label, best, want.PathLogProb)
	}
	for i := range want.Path {
		if path[i] != want.Path[i] {
			t.Fatalf("%s: Viterbi path differs at chunk %d", label, i)
		}
	}
	if !same(got.LogLikelihood, want.Post.LogLikelihood) {
		t.Errorf("%s: log-likelihood %v, want %v", label, got.LogLikelihood, want.Post.LogLikelihood)
	}
	if sc != nil {
		for c, w := range want.sc.alpha[:N*ns] {
			if !same(sc.alpha[c], w) {
				t.Fatalf("%s: alpha[%d][%d] = %v, want %v", label, c/ns, c%ns, sc.alpha[c], w)
			}
		}
		for n := 0; n < N-1; n++ {
			g, w := pairOf(m, sc, obs, want.sc.emit, want.sc.beta, n), want.Post.Pair(n)
			for c := range w {
				if !same(g[c], w[c]) {
					t.Fatalf("%s: Pair[%d] cell %d = %v, want %v", label, n, c, g[c], w[c])
				}
			}
		}
	}
	if want.Underflows > 0 {
		t.Fatalf("%s: %d oracle draws read an underflowing column; pick a session without one", label, want.Underflows)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: %d samples, want %d", label, len(got.Samples), len(want.Samples))
	}
	for s := range want.Samples {
		for i := range want.Samples[s] {
			if got.Samples[s][i] != want.Samples[s][i] {
				t.Fatalf("%s: sample %d differs at chunk %d", label, s, i)
			}
		}
	}
}

// noisySession fabricates n chunks observed over a random-walk capacity
// with measurement noise and mixed chunk sizes, so no posterior is
// sharp; gap(i) is the number of δ-intervals between chunk i and i+1.
func noisySession(rng *rand.Rand, n int, gap func(i int) int) []Observation {
	obs := make([]Observation, n)
	interval, c := 0, 5.0
	for i := range obs {
		c += rng.NormFloat64() * 0.4
		c = math.Max(1, math.Min(9, c))
		size := []float64{4e6, 60e3, 1.5e6, 300e3}[rng.Intn(4)]
		obs[i] = obsFor(c, size, interval)
		obs[i].ThroughputMbps += rng.NormFloat64() * 0.3
		if obs[i].ThroughputMbps < 0 {
			obs[i].ThroughputMbps = 0
		}
		interval += gap(i)
	}
	return obs
}

// oracleSessions are the seeded shapes: several chunks per interval,
// gaps above one, a single chunk, ordinary sessions, and gaps on both
// sides of the power cache's prefix.
func oracleSessions() []struct {
	name string
	obs  []Observation
} {
	rng := rand.New(rand.NewSource(23))
	noisy := func(n int, gap func(i int) int) []Observation { return noisySession(rng, n, gap) }
	return []struct {
		name string
		obs  []Observation
	}{
		{"several-per-interval", noisy(40, func(i int) int { return i % 3 / 2 })}, // gaps 0,0,1
		{"gaps-above-one", noisy(25, func(i int) int { return 1 + i%4 })},
		{"mixed-gaps", noisy(60, func(i int) int { return (i * 7 % 5) % 3 })},
		{"single-chunk", noisy(1, func(int) int { return 0 })},
		{"two-chunks-one-interval", noisy(2, func(int) int { return 0 })},
		{"smooth", sessionObs(30, 5.0, []float64{3e6, 50e3, 1e6})},
		{"gaps-past-the-prefix", noisy(12, func(i int) int { return 58 + 3*i })}, // Δ 58 … 91 across mathx.PowerPrefix
	}
}

// TestOracleBitIdentical compares the single production path with the
// parent's two recursions, bit for bit: α, every Pair through pairInto,
// LogLikelihood, Viterbi path and score, K samples, and the Baum–Welch matrix after
// 1–5 iterations — under both priors, fresh and through one recycled
// Scratch that alternates FitTransitions and Infer on shapes that
// shrink and grow.
func TestOracleBitIdentical(t *testing.T) {
	for _, prior := range []string{"tridiagonal", "uniform"} {
		cfg := DefaultConfig(10)
		cfg.Prior = prior
		recycled := NewScratch()
		for si, s := range oracleSessions() {
			label := prior + "/" + s.name
			seed := int64(1000 + si)
			for _, sc := range []*Scratch{nil, recycled} {
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.SetScratch(sc)
				want := oracleInfer(t, m, s.obs, 4, seed)

				T := s.obs[len(s.obs)-1].StartInterval + 1
				for iters := 1; iters <= 5 && T >= 2; iters++ {
					wantA, wantLL, err := oracleFitTransitions(m, s.obs, iters, 0.1)
					if err != nil {
						t.Fatalf("%s: oracle fit: %v", label, err)
					}
					fit, err := m.FitTransitions(s.obs, iters, 0.1)
					if err != nil {
						t.Fatalf("%s: fit: %v", label, err)
					}
					for i, v := range wantA.Data {
						if fit.Model.powCache.Pow(1).Data[i] != v {
							t.Fatalf("%s: fitted matrix after %d iterations differs at cell %d: %v, want %v",
								label, iters, i, fit.Model.powCache.Pow(1).Data[i], v)
						}
					}
					// The EM log-likelihoods moved from ll += log s + shift
					// to the pass's ll += log s; ll += shift.
					for i, v := range wantLL {
						if got := fit.LogLikelihoods[i]; math.Abs(got-v) > 1e-9*math.Abs(v) {
							t.Fatalf("%s: EM log-likelihood %d = %v, want %v", label, i, got, v)
						}
					}
					if iters == 3 {
						fitted := *m
						fitted.powCache = mathx.NewPowerCache(wantA)
						fitted.sc = nil
						got, err := fit.Model.Infer(s.obs, 4, seed)
						if err != nil {
							t.Fatal(err)
						}
						requireMatchesOracle(t, label+"/fitted", fit.Model, sc, s.obs, got, oracleInfer(t, &fitted, s.obs, 4, seed))
					}
				}

				got, err := m.Infer(s.obs, 4, seed)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireMatchesOracle(t, label, m, sc, s.obs, got, want)

				wantG, wantLL, wantT, err := oracleIntervalPosterior(m, s.obs)
				if err != nil {
					t.Fatal(err)
				}
				gotG, gotLL, gotT, err := intervalPosterior(m, s.obs)
				if err != nil {
					t.Fatal(err)
				}
				if gotT != wantT || gotLL != wantLL {
					t.Fatalf("%s: interval chain T=%d ll=%v, want T=%d ll=%v", label, gotT, gotLL, wantT, wantLL)
				}
				for i, v := range wantG {
					if gotG[i] != v {
						t.Fatalf("%s: interval Gamma differs at cell %d", label, i)
					}
				}
			}
		}
	}
}

// TestOracleIntervalChainEdges pins the two behaviours only the
// interval chain has, against the oracle: an all-−Inf emission row is
// shifted by 0 instead of −Inf, and a chain whose scale reaches 0 is an
// error naming the interval.
func TestOracleIntervalChainEdges(t *testing.T) {
	cfg := DefaultConfig(10)
	// An estimator that predicts +Inf for one chunk size makes that
	// chunk's whole emission row −Inf.
	cfg.Estimator = func(gtbw float64, st tcp.State, size float64) float64 {
		if size == 666 {
			return math.Inf(1)
		}
		return tcp.EstimateThroughput(gtbw, st, size)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observation{obsFor(5, 2e6, 0), obsFor(5, 2e6, 1), obsFor(5, 666, 2), obsFor(5, 2e6, 3)}
	_, _, _, wantErr := oracleIntervalPosterior(m, obs)
	_, _, _, gotErr := intervalPosterior(m, obs)
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("dead interval chain: got %v, want %v", gotErr, wantErr)
	}
	if _, err := m.FitTransitions(obs, 1, 0.1); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("FitTransitions on a dead chain: got %v, want %v", err, wantErr)
	}
	// The chunk chain has no such error: it keeps its scale > 0 guards
	// and reports what the parent reported.
	sc := NewScratch()
	m.SetScratch(sc)
	got, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleInfer(t, m, obs, 0, 1)
	if math.Float64bits(got.LogLikelihood) != math.Float64bits(want.Post.LogLikelihood) {
		t.Errorf("chunk chain log-likelihood %v, want %v", got.LogLikelihood, want.Post.LogLikelihood)
	}
	// The −Inf row makes the parent's α NaN from that chunk on; compare
	// bit patterns, since NaN != NaN.
	for i, w := range want.sc.alpha {
		if math.Float64bits(sc.alpha[i]) != math.Float64bits(w) {
			t.Fatalf("chunk chain alpha cell %d = %v, want %v", i, sc.alpha[i], w)
		}
	}
}
