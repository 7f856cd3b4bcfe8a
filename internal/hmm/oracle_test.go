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
// for bit.
//
// The same file holds the dense kernels that the banded rewrite
// replaced, again verbatim: the pair-slab posterior (oraclePosterior),
// Viterbi's search over every predecessor, the sampler that reads a
// column of the materialised pair slab, and ExpectedCapacityAfter over
// the whole row. TestBandedMatchesDense drives them against the banded
// production path.

type oracleScratch struct {
	emitLog, emit, alpha, beta, gamma, pair []float64
	shift, scale                            []float64
	gaps                                    []int
	weighted                                []float64

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
	sc.weighted = make([]float64, s)
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
	pred := est(m.states[i], obs.TCP, obs.SizeBytes)
	return mathx.NormalLogPDF(obs.ThroughputMbps, pred, m.cfg.Sigma)
}

func oracleEmissionTableInto(m *Model, tab []float64, obs []Observation) {
	ns := len(m.states)
	est := m.cfg.Estimator
	if est == nil {
		est = tcp.EstimateThroughput
	}
	for n, o := range obs {
		row := tab[n*ns : (n+1)*ns]
		for i := range m.states {
			pred := est(m.states[i], o.TCP, o.SizeBytes)
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
}

func (p *oraclePosterior) Len() int              { return p.n }
func (p *oraclePosterior) Gamma(n int) []float64 { return p.gamma[n*p.ns : (n+1)*p.ns] }
func (p *oraclePosterior) Pair(n int) []float64 {
	return p.pair[n*p.ns*p.ns : (n+1)*p.ns*p.ns]
}

func oracleForwardBackwardInto(m *Model, sc *oracleScratch, N int) *oraclePosterior {
	ns := len(m.states)
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

func oracleIntervalEmissionsInto(m *Model, sc *oracleScratch, obs []Observation) (int, error) {
	if len(obs) == 0 {
		return 0, ErrNoObservations
	}
	sc.gaps = make([]int, len(obs))
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
	if err := oracleIntervalPasses(m, sc, T, m.trans); err != nil {
		return nil, 0, 0, err
	}
	ns := len(m.states)
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
	ns := len(m.states)
	logE := sc.intLogE
	a := m.trans.Clone()
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
func oracleViterbiInto(m *Model, sc *Scratch, N int) ([]int, float64) {
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
		logA := m.powCache.PowLog(d[n])
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
// the materialised pair slab per step.
func oracleSampleInto(m *Model, out []int, weights []float64, rng *rand.Rand, post *oraclePosterior, viterbi []int) error {
	N := post.Len()
	if len(viterbi) != N {
		return errors.New("hmm: viterbi path length mismatch")
	}
	ns := len(m.states)
	out[N-1] = viterbi[N-1]
	for n := N - 2; n >= 0; n-- {
		nextState := out[n+1]
		pair := post.Pair(n)
		var total float64
		for i := 0; i < ns; i++ {
			weights[i] = pair[i*ns+nextState]
			total += weights[i]
		}
		if total <= 0 {
			copy(weights, post.Gamma(n))
		}
		out[n] = mathx.SampleCategorical(rng, weights)
	}
	return nil
}

// oracleExpectedCapacityAfter is the parent's ExpectedCapacityAfter,
// summing over the whole row of A^gap.
func oracleExpectedCapacityAfter(m *Model, state, gap int) float64 {
	if gap < 0 {
		gap = 0
	}
	a := m.powCache.Pow(gap)
	row := a.Row(state)
	var e float64
	for j, p := range row {
		e += p * m.states[j]
	}
	return e
}

// oracleInference is the parent's Inference, carrying the pair slab.
type oracleInference struct {
	Path        []int
	PathLogProb float64
	Post        *oraclePosterior
	Samples     [][]int
}

// oracleInfer is the parent's Infer, end to end on the oracle kernels:
// gaps, the per-cell emission table, the dense Viterbi, the dense
// forward–backward with its pair slab, and K samples read from it.
func oracleInfer(t *testing.T, m *Model, obs []Observation, k int, seed int64) *oracleInference {
	t.Helper()
	N, ns := len(obs), len(m.states)
	sc := &Scratch{}
	sc.inferSlabs(N, ns)
	if err := gapsInto(sc.gaps, obs); err != nil {
		t.Fatal(err)
	}
	oracleEmissionTableInto(m, sc.emitLog, obs)
	path, best := oracleViterbiInto(m, sc, N)

	osc := &oracleScratch{}
	osc.chunkSlabs(N, ns)
	copy(osc.gaps, sc.gaps)
	copy(osc.emitLog, sc.emitLog)
	post := oracleForwardBackwardInto(m, osc, N)

	inf := &oracleInference{Path: path, PathLogProb: best, Post: post}
	if k > 0 {
		inf.Samples = sc.samples(k, N)
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < k; s++ {
			if err := oracleSampleInto(m, inf.Samples[s], sc.weights, rng, post, path); err != nil {
				t.Fatal(err)
			}
		}
	}
	return inf
}

// requireMatchesOracle asserts the production inference equals the
// oracle's bit for bit: Viterbi path and score, log-likelihood, γ and
// the K samples. With the arena the production run used (sc non-nil),
// every column of every pairwise posterior is rebuilt and compared with
// the oracle's materialised slab as well.
func requireMatchesOracle(t *testing.T, label string, m *Model, sc *Scratch, got *Inference, want *oracleInference) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.PathLogProb, want.PathLogProb) {
		t.Errorf("%s: PathLogProb %v, want %v", label, got.PathLogProb, want.PathLogProb)
	}
	if len(got.Path) != len(want.Path) {
		t.Fatalf("%s: path length %d, want %d", label, len(got.Path), len(want.Path))
	}
	for i := range got.Path {
		if got.Path[i] != want.Path[i] {
			t.Fatalf("%s: Viterbi path differs at chunk %d", label, i)
		}
	}
	if !same(got.Post.LogLikelihood, want.Post.LogLikelihood) {
		t.Errorf("%s: log-likelihood %v, want %v", label, got.Post.LogLikelihood, want.Post.LogLikelihood)
	}
	for n := 0; n < want.Post.Len(); n++ {
		g, w := got.Post.Gamma(n), want.Post.Gamma(n)
		for i := range w {
			if !same(g[i], w[i]) {
				t.Fatalf("%s: Gamma[%d][%d] = %v, want %v", label, n, i, g[i], w[i])
			}
		}
	}
	if sc != nil {
		for n := 0; n < want.Post.Len()-1; n++ {
			g, w := pairOf(m, sc, n), want.Post.Pair(n)
			for c := range w {
				if !same(g[c], w[c]) {
					t.Fatalf("%s: Pair[%d] cell %d = %v, want %v", label, n, c, g[c], w[c])
				}
			}
		}
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

// oracleSessions are the seeded shapes the issue names: several chunks
// per interval, gaps above one, a single chunk, and ordinary sessions.
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
	}
}

// TestOracleBitIdentical compares the single production path with the
// parent's two recursions, bit for bit: Gamma, every Pair column, LogLikelihood,
// Viterbi path and score, K samples, and the Baum–Welch matrix after
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
						if fit.Model.trans.Data[i] != v {
							t.Fatalf("%s: fitted matrix after %d iterations differs at cell %d: %v, want %v",
								label, iters, i, fit.Model.trans.Data[i], v)
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
						fitted.trans, fitted.powCache = wantA, mathx.NewPowerCache(wantA)
						fitted.sc = nil
						got, err := fit.Model.Infer(s.obs, 4, seed)
						if err != nil {
							t.Fatal(err)
						}
						requireMatchesOracle(t, label+"/fitted", fit.Model, sc, got, oracleInfer(t, &fitted, s.obs, 4, seed))
					}
				}

				got, err := m.Infer(s.obs, 4, seed)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireMatchesOracle(t, label, m, sc, got, want)

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
	got, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleInfer(t, m, obs, 0, 1)
	if math.Float64bits(got.Post.LogLikelihood) != math.Float64bits(want.Post.LogLikelihood) {
		t.Errorf("chunk chain log-likelihood %v, want %v", got.Post.LogLikelihood, want.Post.LogLikelihood)
	}
	// The −Inf row makes the parent's marginals NaN from that chunk on;
	// compare bit patterns, since NaN != NaN.
	for i, w := range want.Post.gamma {
		if math.Float64bits(got.Post.gamma[i]) != math.Float64bits(w) {
			t.Fatalf("chunk chain Gamma cell %d = %v, want %v", i, got.Post.gamma[i], w)
		}
	}
}
