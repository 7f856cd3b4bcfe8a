package hmm

import (
	"math"
	"testing"

	"veritas/internal/mathx"
)

// intervalPosterior runs the production α/β pass over the interval chain
// with the model's own transition matrix — the E-step of a Baum–Welch
// fit that stops before re-estimating anything — and returns the
// smoothed per-interval marginals as a T×S slab, the chain's
// log-likelihood and T. FitTransitions is the only production caller of
// that chain; this is how the tests see its posterior.
func intervalPosterior(m *Model, obs []Observation) (gamma []float64, ll float64, T int, err error) {
	sc := m.scratch()
	T, err = m.intervalEmissionsInto(sc, obs)
	if err != nil {
		return nil, 0, 0, err
	}
	ll, err = m.alphaBeta(sc, T, m.powCache.Pow(1), mathx.BandOf(m.powCache.Pow(1)))
	if err != nil {
		return nil, 0, 0, err
	}
	ns := m.ns
	gamma = make([]float64, T*ns)
	for i := range gamma {
		gamma[i] = sc.alpha[i] * sc.beta[i]
	}
	for t := 0; t < T; t++ {
		mathx.Normalize(gamma[t*ns : (t+1)*ns])
	}
	return gamma, ll, T, nil
}

func TestIntervalForwardBackwardShapes(t *testing.T) {
	m := testModel(t, 10)
	var obs []Observation
	for i := 0; i < 10; i++ {
		obs = append(obs, obsFor(5, 2e6, i*3)) // gaps: intervals 0,3,6,...
	}
	gamma, _, T, err := intervalPosterior(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	wantT := obs[len(obs)-1].StartInterval + 1
	if T != wantT {
		t.Fatalf("T = %d, want %d", T, wantT)
	}
	ns := m.NumStates()
	for tt := 0; tt < T; tt++ {
		g := gamma[tt*ns : (tt+1)*ns]
		var s float64
		for _, v := range g {
			if v < -1e-12 {
				t.Fatalf("negative posterior at interval %d", tt)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Gamma[%d] sums to %v", tt, s)
		}
	}
}

func TestIntervalPosteriorMatchesChunkPosterior(t *testing.T) {
	// At chunk-start intervals, the interval-chain marginals must agree
	// with the embedded (A^Δ) chain's marginals: they are two
	// factorizations of the same joint.
	m := testModel(t, 10)
	var obs []Observation
	caps := []float64{4, 4, 4.5, 5, 5, 5.5, 6, 6, 6, 6}
	for i, c := range caps {
		obs = append(obs, obsFor(c, 3e6, i*2))
	}
	chunkPost := posteriorOf(t, m, obs)
	intGamma, intLL, _, err := intervalPosterior(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	ns := m.NumStates()
	for n, o := range obs {
		for i := 0; i < ns; i++ {
			a := chunkPost.Gamma(n)[i]
			b := intGamma[o.StartInterval*ns+i]
			if math.Abs(a-b) > 1e-6 {
				t.Fatalf("chunk %d state %d: embedded %v vs interval %v", n, i, a, b)
			}
		}
	}
	if math.Abs(chunkPost.LogLikelihood-intLL) > 1e-6 {
		t.Errorf("log-likelihoods differ: %v vs %v", chunkPost.LogLikelihood, intLL)
	}
}

func TestIntervalMultipleChunksPerInterval(t *testing.T) {
	// Two chunks in the same interval multiply their emissions; the
	// posterior should concentrate harder than with one chunk.
	m := testModel(t, 10)
	one := []Observation{obsFor(5, 1e6, 0), obsFor(5, 1e6, 1)}
	two := []Observation{obsFor(5, 1e6, 0), obsFor(5, 1e6, 0), obsFor(5, 1e6, 1), obsFor(5, 1e6, 1)}
	g1, _, _, err := intervalPosterior(m, one)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _, err := intervalPosterior(m, two)
	if err != nil {
		t.Fatal(err)
	}
	ns := m.NumStates()
	ent := func(g []float64) float64 {
		var h float64
		for _, v := range g {
			if v > 1e-15 {
				h -= v * math.Log(v)
			}
		}
		return h
	}
	if ent(g2[:ns]) > ent(g1[:ns]) {
		t.Errorf("doubled evidence should not widen the posterior: %v vs %v",
			ent(g2[:ns]), ent(g1[:ns]))
	}
}

func TestIntervalErrors(t *testing.T) {
	m := testModel(t, 10)
	if _, _, _, err := intervalPosterior(m, nil); err != ErrNoObservations {
		t.Errorf("want ErrNoObservations, got %v", err)
	}
	bad := []Observation{obsFor(5, 1e6, 3), obsFor(5, 1e6, 1)}
	if _, _, _, err := intervalPosterior(m, bad); err == nil {
		t.Error("out-of-order intervals should error")
	}
}

func TestFitTransitionsImprovesLikelihood(t *testing.T) {
	// Observations from a volatile process: EM should raise the
	// likelihood monotonically over the fixed tridiagonal prior.
	m := testModel(t, 10)
	var obs []Observation
	caps := []float64{3, 3, 7, 7, 3, 3, 7, 7, 3, 3, 7, 7, 3, 3, 7, 7}
	for i, c := range caps {
		obs = append(obs, obsFor(c, 4e6, i))
	}
	fit, err := m.FitTransitions(obs, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fit.LogLikelihoods) != 5 {
		t.Fatalf("recorded %d lls", len(fit.LogLikelihoods))
	}
	for i := 1; i < len(fit.LogLikelihoods); i++ {
		if fit.LogLikelihoods[i] < fit.LogLikelihoods[i-1]-1e-6 {
			t.Errorf("EM decreased likelihood at iter %d: %v -> %v",
				i, fit.LogLikelihoods[i-1], fit.LogLikelihoods[i])
		}
	}
	// The learned matrix must be a valid stochastic matrix.
	if !rowStochastic(fit.Model.powCache.Pow(1), 1e-6) {
		t.Error("learned transition matrix not row-stochastic")
	}
	// And inference with it must still work.
	if _, err := fit.Model.Infer(obs, 0, 1); err != nil {
		t.Errorf("Infer on fitted model: %v", err)
	}
}

func TestFitTransitionsValidation(t *testing.T) {
	m := testModel(t, 10)
	obs := []Observation{obsFor(5, 1e6, 0), obsFor(5, 1e6, 1)}
	if _, err := m.FitTransitions(obs, 0, 0.1); err == nil {
		t.Error("iters=0 should error")
	}
	if _, err := m.FitTransitions(obs, 1, -1); err == nil {
		t.Error("negative smoothing should error")
	}
	if _, err := m.FitTransitions(nil, 1, 0.1); err == nil {
		t.Error("empty observations should error")
	}
	single := []Observation{obsFor(5, 1e6, 0)}
	if _, err := m.FitTransitions(single, 1, 0.1); err == nil {
		t.Error("single interval should error")
	}
}

func TestFitTransitionsDoesNotMutateOriginal(t *testing.T) {
	m := testModel(t, 10)
	before := m.powCache.Pow(1).Clone()
	var obs []Observation
	for i := 0; i < 8; i++ {
		obs = append(obs, obsFor(5, 2e6, i))
	}
	if _, err := m.FitTransitions(obs, 3, 0.1); err != nil {
		t.Fatal(err)
	}
	for i := range before.Data {
		if m.powCache.Pow(1).Data[i] != before.Data[i] {
			t.Fatal("FitTransitions mutated the original model")
		}
	}
}
