package hmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"veritas/internal/mathx"
)

// This file is the differential oracle for the sampler that reads α
// alone (forward filtering, backward sampling): the chunk chain as
// Infer ran it when it still computed the whole posterior — the
// emission table, viterbiInto with its back-pointers, the α/β pass,
// posteriorInto with its per-pair normalizers, and the sampler that
// drew from the column Γ_{·,s,n} of the pairwise posterior, falling
// back to γ_n when that column was empty. The function bodies are that
// parent's, verbatim but for their homes: receivers became parameters,
// the arena became colScratch, and the α/β pass lost the interval
// chain's branch, which FitTransitions keeps in production.
//
// The two samplers draw from columns that differ by one constant
// factor, e_{n+1}(s)·β_{n+1}(s)/total_n, so they draw the same state
// unless that factor underflows some of the column's weights to zero or
// to subnormals: there the oracle loses precision or falls back to γ_n,
// and the production sampler reads the exact conditional
// α_n(i)·A^Δ(i, s). columnUnderflows names those draws; the tests and
// FuzzSamplerMatchesOracle compare the draws of every session that has
// none.

// colScratch is the parent's Scratch, as far as Infer used it.
type colScratch struct {
	emitLog, emit, alpha, beta, gamma []float64
	shift, scale, total               []float64
	weighted, weights, cur, next      []float64
	gaps, back, path                  []int
	stepA                             []*mathx.Matrix
	stepBand                          []mathx.Band
}

func (sc *colScratch) inferSlabs(n, s int) {
	sc.emitLog = make([]float64, n*s)
	sc.emit = make([]float64, n*s)
	sc.alpha = make([]float64, n*s)
	sc.beta = make([]float64, n*s)
	sc.gamma = make([]float64, n*s)
	sc.shift = make([]float64, n)
	sc.scale = make([]float64, n)
	sc.total = make([]float64, n)
	sc.weighted = make([]float64, s)
	sc.weights = make([]float64, s)
	sc.cur = make([]float64, s)
	sc.next = make([]float64, s)
	sc.gaps = make([]int, n)
	sc.back = make([]int, n*s)
	sc.path = make([]int, n)
	sc.stepA = make([]*mathx.Matrix, n)
	sc.stepBand = make([]mathx.Band, n)
}

// colPosterior is the parent's Posterior: the N×S marginals.
type colPosterior struct {
	gamma         []float64
	n, ns         int
	LogLikelihood float64
}

func (p *colPosterior) Len() int              { return p.n }
func (p *colPosterior) Gamma(n int) []float64 { return p.gamma[n*p.ns : (n+1)*p.ns] }

// colInference is the parent's Inference, with the pass's slabs and the
// sampler's counts of draws whose column fell back to γ_n (Fallbacks)
// or underflowed at all (Underflows, fallbacks included).
type colInference struct {
	Path        []int
	PathLogProb float64
	Post        *colPosterior
	Samples     [][]int

	sc                    *colScratch
	Fallbacks, Underflows int
}

// colInfer is the parent's Infer.
func colInfer(m *Model, obs []Observation, k int, seed int64) (*colInference, error) {
	if len(obs) == 0 {
		return nil, ErrNoObservations
	}
	if k < 0 {
		return nil, ErrNegativeSamples
	}
	sc := &colScratch{}
	N := len(obs)
	ns := m.ns
	sc.inferSlabs(N, ns)
	if err := gapsInto(sc.gaps, obs); err != nil {
		return nil, err
	}
	for n := 1; n < N; n++ {
		sc.stepA[n], sc.stepBand[n] = m.powCache.PowBand(sc.gaps[n])
	}
	for n, o := range obs {
		m.emissionRowInto(sc.emitLog[n*ns:(n+1)*ns], o)
	}

	path, best := colViterbiInto(m, sc, N)
	ll := colAlphaBeta(m, sc, N)
	post := colPosteriorInto(m, sc, N, ll)

	inf := &colInference{Path: path, PathLogProb: best, Post: post, sc: sc}
	if k > 0 {
		inf.Samples = make([][]int, k)
		rng := mathx.NewRand(seed)
		for s := 0; s < k; s++ {
			inf.Samples[s] = make([]int, N)
			if err := colSampleInto(m, inf.Samples[s], sc, rng, post, path, inf); err != nil {
				return nil, err
			}
		}
	}
	return inf, nil
}

// colViterbiInto is the parent's viterbiInto.
func colViterbiInto(m *Model, sc *colScratch, N int) ([]int, float64) {
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

// colAlphaBeta is the chunk chain's half of the parent's alphaBeta.
func colAlphaBeta(m *Model, sc *colScratch, P int) float64 {
	ns := m.ns
	step := func(p int) (*mathx.Matrix, mathx.Band) { return sc.stepA[p], sc.stepBand[p] }
	row := func(slab []float64, p int) []float64 { return slab[p*ns : (p+1)*ns] }

	for p := 0; p < P; p++ {
		logRow := row(sc.emitLog, p)
		maxLog := mathx.NegInf
		for _, v := range logRow {
			if v > maxLog {
				maxLog = v
			}
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
	return ll
}

// colPairSum is the parent's pairInto with a nil dst: the sum of the
// unnormalized pairwise posterior of chunks (p, p+1).
func colPairSum(sc *colScratch, p int, a *mathx.Matrix, band mathx.Band) float64 {
	ns := a.Rows
	ap := sc.alpha[p*ns : (p+1)*ns]
	eNext, bNext := sc.emit[(p+1)*ns:(p+2)*ns], sc.beta[(p+1)*ns:(p+2)*ns]
	var total float64
	for i := 0; i < ns; i++ {
		arow := a.Row(i)
		for j := band.RowLo[i]; j < band.RowHi[i]; j++ {
			v := ap[i] * arow[j] * eNext[j] * bNext[j]
			total += v
		}
	}
	return total
}

// colPosteriorInto is the parent's posteriorInto.
func colPosteriorInto(m *Model, sc *colScratch, N int, ll float64) *colPosterior {
	ns := m.ns
	post := &colPosterior{
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
		sc.total[n] = colPairSum(sc, n, sc.stepA[n+1], sc.stepBand[n+1])
	}
	return post
}

// colSampleInto is the parent's sampleInto, counting into inf the draws
// whose column underflowed and those that fell back to γ_n.
func colSampleInto(m *Model, out []int, sc *colScratch, rng *mathx.Rand, post *colPosterior, viterbi []int, inf *colInference) error {
	N := post.Len()
	if len(viterbi) != N {
		return errors.New("hmm: viterbi path length mismatch")
	}
	ns := m.ns
	out[N-1] = viterbi[N-1]
	for n := N - 2; n >= 0; n-- {
		total := colPairColumnInto(m, sc.weights, sc, n, out[n+1])
		if columnUnderflows(sc.weights, sc.alpha[n*ns:(n+1)*ns], sc.stepA[n+1], out[n+1]) {
			inf.Underflows++
		}
		if total <= 0 {
			// The conditioned column is numerically empty (the sampled
			// next state was reachable only via Viterbi ties); fall back
			// to the marginal, which is always populated.
			copy(sc.weights, post.Gamma(n))
			inf.Fallbacks++
		}
		out[n] = mathx.SampleCategorical(rng, sc.weights)
	}
	return nil
}

// colPairColumnInto is the parent's pairColumnInto: column s of the
// chunk pair (n, n+1)'s pairwise posterior, and its sum.
func colPairColumnInto(m *Model, w []float64, sc *colScratch, n, s int) float64 {
	ns := m.ns
	a, band := sc.stepA[n+1], sc.stepBand[n+1]
	an := sc.alpha[n*ns : (n+1)*ns]
	eNext, bNext := sc.emit[(n+1)*ns+s], sc.beta[(n+1)*ns+s]
	pairTotal := sc.total[n]
	for i := range w {
		w[i] = 0
	}
	var total float64
	for i := band.ColLo[s]; i < band.ColHi[s]; i++ {
		v := an[i] * a.At(i, s) * eNext * bNext
		if pairTotal > 0 {
			v /= pairTotal
		}
		w[i] = v
		total += v
	}
	return total
}

// columnUnderflows reports whether a Γ column the oracle drew from,
// col, lost what the production sampler's column w_i = α_n(i)·A^Δ(i, s)
// keeps: the column is empty, or a weight that carries mass in w — at
// least 2⁻⁶⁰ of w's sum — came out of the constant factor as zero or a
// subnormal. A weight below that share moves a draw only if the
// generator's uniform is exactly 0, so it is not counted.
func columnUnderflows(col, alphaN []float64, a *mathx.Matrix, s int) bool {
	var total, wTotal float64
	for i, c := range col {
		total += c
		wTotal += alphaN[i] * a.At(i, s)
	}
	if !(total > 0) {
		return true
	}
	for i, c := range col {
		if w := alphaN[i] * a.At(i, s); w > 0 && w >= wTotal*0x1p-60 && c < 0x1p-1022 {
			return true
		}
	}
	return false
}

// pairOf rebuilds Γ of chunks (n, n+1) — pairOf(...)[i*S+j] = Γ_{i,j,n}
// — through the production pairInto, from the α the Infer that just ran
// left in sc and the chunk chain's rescaled emissions and β, which
// production no longer computes (an oracle's). Infer clears its step
// matrices on return, so the one this pair reads is looked up again by
// its gap. It leaves sc's interval-chain slabs as it found them.
func pairOf(m *Model, sc *Scratch, obs []Observation, emit, beta []float64, n int) []float64 {
	ns := m.NumStates()
	a, band := m.powCache.PowBand(obs[n+1].StartInterval - obs[n].StartInterval)
	saved := *sc
	defer func() { *sc = saved }()
	sc.emit, sc.beta = emit, beta
	pair := make([]float64, ns*ns)
	if total := sc.pairInto(pair, n, a, band); total > 0 {
		for c := range pair {
			pair[c] /= total
		}
	}
	return pair
}

// chunkPosterior is Infer's forward pass completed by the oracle's
// chunk-chain β: the marginals, the log-likelihood, and Γ through
// pairInto.
type chunkPosterior struct {
	*colPosterior
	pair func(n int) []float64
}

// posteriorOf runs Infer (k = 0) through a fresh arena, checks its α and
// log-likelihood against the oracle's bit for bit, and returns the
// posterior the oracle's β completes it to.
func posteriorOf(t *testing.T, m *Model, obs []Observation) chunkPosterior {
	t.Helper()
	sc := NewScratch()
	m.SetScratch(sc)
	defer m.SetScratch(nil)
	inf, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := colInfer(m, obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(inf.LogLikelihood) != math.Float64bits(want.Post.LogLikelihood) {
		t.Fatalf("log-likelihood %v, oracle %v", inf.LogLikelihood, want.Post.LogLikelihood)
	}
	for c, w := range want.sc.alpha {
		if math.Float64bits(sc.alpha[c]) != math.Float64bits(w) {
			t.Fatalf("alpha cell %d = %v, oracle %v", c, sc.alpha[c], w)
		}
	}
	return chunkPosterior{want.Post, func(n int) []float64 { return pairOf(m, sc, obs, want.sc.emit, want.sc.beta, n) }}
}

// requireSamplerMatchesOracle compares Infer with the oracle's Infer:
// the last state, the path's score, the log-likelihood and, unless a
// draw of the oracle read an underflowing column, the samples. It
// returns the oracle's result.
func requireSamplerMatchesOracle(t *testing.T, label string, m *Model, obs []Observation, k int, seed int64) *colInference {
	t.Helper()
	got, err := m.Infer(obs, k, seed)
	want, werr := colInfer(m, obs, k, seed)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s: error %v, oracle's %v", label, err, werr)
	}
	if err != nil {
		return nil
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	N := len(obs)
	if got.Last != want.Path[N-1] || !same(got.PathLogProb, want.PathLogProb) || !same(got.LogLikelihood, want.Post.LogLikelihood) {
		t.Fatalf("%s: last state %d, score %v, log-likelihood %v; oracle %d, %v, %v",
			label, got.Last, got.PathLogProb, got.LogLikelihood, want.Path[N-1], want.PathLogProb, want.Post.LogLikelihood)
	}
	if want.Underflows > 0 {
		return want
	}
	for s := range want.Samples {
		for n := range want.Samples[s] {
			if got.Samples[s][n] != want.Samples[s][n] {
				t.Fatalf("%s: sample %d differs at chunk %d: %d, oracle %d", label, s, n, got.Samples[s][n], want.Samples[s][n])
			}
		}
	}
	return want
}

// FuzzSamplerMatchesOracle: for any log of 1–300 chunks, K and seed, on
// either prior, Infer's last state, score, log-likelihood and — where
// no oracle draw read an underflowing column — every sampled path equal
// the γ-column oracle's. Each chunk takes three bytes of the log: its
// throughput (0–25.5 Mbps, so a fast chunk can sit past the grid), its
// size and TCP state, and its gap after the previous chunk (0–3 δ).
func FuzzSamplerMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{1, 2, 17, 60, 300} {
		log := make([]byte, 3*n)
		rng.Read(log)
		f.Add(log, uint8(4), int64(n), false, uint8(20))
	}
	f.Add([]byte{10, 0, 0, 200, 3, 0}, uint8(0), int64(1), true, uint8(7))
	f.Fuzz(func(t *testing.T, log []byte, k uint8, seed int64, uniform bool, top uint8) {
		n := min(len(log)/3, 300)
		if n == 0 {
			return
		}
		cfg := DefaultConfig(1 + float64(top%40)/2)
		if uniform {
			cfg.Prior = "uniform"
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		obs := make([]Observation, n)
		interval := 0
		for i := range obs {
			b := log[3*i : 3*i+3]
			if i > 0 {
				interval += int(b[2] % 4)
			}
			st := sbcStates[int(b[1]/16)%len(sbcStates)]
			obs[i] = Observation{
				ThroughputMbps: float64(b[0]) / 10,
				TCP:            st,
				SizeBytes:      []float64{14480, 60e3, 0.4e6, 1.5e6, 5e6}[int(b[1]%16)%5],
				StartInterval:  interval,
			}
		}
		m.SetScratch(NewScratch())
		requireSamplerMatchesOracle(t, "fuzz", m, obs, 1+int(k%19), seed)
	})
}

// TestSamplerUnderflowDrawsFromAlpha pins the one place the sampler may
// draw otherwise than the γ-column oracle: a column whose constant
// factor e_{n+1}(s)·β_{n+1}(s)/total_n underflows. Two chunks share one
// δ-interval, so A⁰, the identity, holds them in one state, and they
// observe 1 and 32 Mbps on a hot connection with σ = 0.5. The Viterbi
// state s is 16.5 Mbps, where each chunk's emission is about 1e-209 of
// its best.
//   - The oracle's column for the first chunk, α_0(s)·e_1(s)·β_1(s)/total_0,
//     underflows to zero, and it falls back to γ_0 — uniform here, since
//     every α_0(i)·β_0(i) underflows as well — so its draws scatter over
//     the grid.
//   - The production sampler draws from α_0(i)·A⁰(i, s), which is
//     α_0(s) > 0 at i = s alone: the exact conditional, which keeps every
//     sample in the one state the identity step allows.
func TestSamplerUnderflowDrawsFromAlpha(t *testing.T) {
	m := testModel(t, 35)
	hot := hotState()
	obs := []Observation{
		{ThroughputMbps: 1, TCP: hot, SizeBytes: 5e6, StartInterval: 0},
		{ThroughputMbps: 32, TCP: hot, SizeBytes: 5e6, StartInterval: 0},
	}
	const k = 8
	m.SetScratch(NewScratch())
	want := requireSamplerMatchesOracle(t, "underflow", m, obs, k, 3)
	if want.Fallbacks != k {
		t.Fatalf("the oracle fell back to γ_0 in %d of %d draws, want all: the session no longer underflows", want.Fallbacks, k)
	}
	got, err := m.Infer(obs, k, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity(got.Last) != 16.5 {
		t.Fatalf("last Viterbi state %v Mbps, want 16.5", m.Capacity(got.Last))
	}
	left := 0
	for s := range got.Samples {
		if p := got.Samples[s]; p[0] != got.Last || p[1] != got.Last {
			t.Errorf("sample %d = %v: the draw left the identity step's column (last state %d)", s, p, got.Last)
		}
		if want.Samples[s][0] != got.Last {
			left++
		}
	}
	if left == 0 {
		t.Errorf("every oracle draw landed on the Viterbi state: its γ_0 fallback is no longer uniform")
	}
}
