package hmm

import (
	"math"
	"testing"

	"veritas/internal/mathx"
	"veritas/internal/tcp"
)

func testModel(t *testing.T, maxMbps float64) *Model {
	t.Helper()
	m, err := New(DefaultConfig(maxMbps))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// hotState returns a TCP state warm enough that the estimator f reports
// ~GTBW for large chunks, making emissions informative about capacity.
func hotState() tcp.State {
	s := tcp.Fresh(0.080)
	s.CWND = 2000
	s.SSThresh = 2000
	return s
}

// obsFor fabricates the observation a chunk of the given size would
// produce if the true capacity were gtbw (no noise).
func obsFor(gtbw float64, sizeBytes float64, interval int) Observation {
	st := hotState()
	return Observation{
		ThroughputMbps: tcp.EstimateThroughput(gtbw, st, sizeBytes),
		TCP:            st,
		SizeBytes:      sizeBytes,
		StartInterval:  interval,
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{EpsMbps: 0, MaxMbps: 10, DeltaSecs: 5, Sigma: 0.5, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 0.1, DeltaSecs: 5, Sigma: 0.5, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: 0, Sigma: 0.5, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: 5, Sigma: 0, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: 5, Sigma: 0.5, StayProb: 1},
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: 5, Sigma: 0.5, StayProb: 0},
		// One state past the grid bound, and sizes that would overflow or
		// exhaust memory in New if they were not refused here.
		{EpsMbps: 0.5, MaxMbps: 1000.5, DeltaSecs: 5, Sigma: 0.5, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 1.5e6, DeltaSecs: 5, Sigma: 0.5, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 1.5e300, DeltaSecs: 5, Sigma: 0.5, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: math.Inf(1), DeltaSecs: 5, Sigma: 0.5, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: math.NaN(), DeltaSecs: 5, Sigma: 0.5, StayProb: 0.8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted invalid config %d", i)
		}
	}
	// The bound itself is legal: 1 Gbps at ε = 0.5 Mbps.
	if err := DefaultConfig(1000).Validate(); err != nil {
		t.Errorf("1 Gbps grid refused: %v", err)
	}
}

func TestStateGrid(t *testing.T) {
	m := testModel(t, 10)
	if m.NumStates() != 21 {
		t.Fatalf("10 Mbps / 0.5 grid should have 21 states, got %d", m.NumStates())
	}
	if m.Capacity(0) != 0 || m.Capacity(20) != 10 {
		t.Errorf("grid endpoints wrong: %v, %v", m.Capacity(0), m.Capacity(20))
	}
}

func TestTridiagonalStochastic(t *testing.T) {
	for _, n := range []int{1, 2, 5, 21} {
		a := Tridiagonal(n, 0.8)
		if !a.IsRowStochastic(1e-12) {
			t.Errorf("Tridiagonal(%d) not row-stochastic", n)
		}
	}
	a := Tridiagonal(5, 0.8)
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !approx(a.At(2, 2), 0.8) || !approx(a.At(2, 1), 0.1) || !approx(a.At(2, 3), 0.1) {
		t.Error("interior row wrong")
	}
	if !approx(a.At(0, 0), 0.8) || !approx(a.At(0, 1), 0.2) {
		t.Error("edge row wrong")
	}
	if a.At(2, 0) != 0 {
		t.Error("non-adjacent transition should be zero")
	}
}

func TestTransitionPowerSpreads(t *testing.T) {
	m := testModel(t, 10)
	one := m.powCache.Pow(1)
	ten := m.powCache.Pow(10)
	// After more steps, mass further from the diagonal.
	if ten.At(10, 10) >= one.At(10, 10) {
		t.Error("self-transition probability should decay with steps")
	}
	if ten.At(10, 5) <= one.At(10, 5) {
		t.Error("distant transitions should gain probability with steps")
	}
	if !ten.IsRowStochastic(1e-9) {
		t.Error("A^10 not stochastic")
	}
}

func TestEmissionPeaksAtTrueCapacity(t *testing.T) {
	m := testModel(t, 10)
	// A large chunk on a hot connection observes ~GTBW, so the emission
	// should peak at the true state.
	obs := obsFor(4.0, 5e6, 0)
	row := make([]float64, m.NumStates())
	m.emissionRowInto(row, obs)
	best, bestLP := -1, math.Inf(-1)
	for i, lp := range row {
		if lp > bestLP {
			best, bestLP = i, lp
		}
	}
	if m.Capacity(best) != 4.0 {
		t.Errorf("emission peak at %v Mbps, want 4.0", m.Capacity(best))
	}
}

func TestViterbiEmptyInput(t *testing.T) {
	m := testModel(t, 10)
	if _, err := m.Infer(nil, 0, 1); err != ErrNoObservations {
		t.Errorf("want ErrNoObservations, got %v", err)
	}
}

func TestViterbiOutOfOrder(t *testing.T) {
	m := testModel(t, 10)
	obs := []Observation{obsFor(4, 5e6, 3), obsFor(4, 5e6, 1)}
	if _, err := m.Infer(obs, 0, 1); err == nil {
		t.Error("out-of-order intervals should error")
	}
}

func TestViterbiRecoversConstantCapacity(t *testing.T) {
	m := testModel(t, 10)
	var obs []Observation
	for i := 0; i < 20; i++ {
		obs = append(obs, obsFor(6.0, 4e6, i))
	}
	inf, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path, ll := inf.Path, inf.PathLogProb
	if math.IsInf(ll, -1) {
		t.Fatal("log-likelihood is -Inf")
	}
	for n, s := range path {
		if m.Capacity(s) != 6.0 {
			t.Errorf("chunk %d: Viterbi says %v Mbps, want 6.0", n, m.Capacity(s))
		}
	}
}

func TestViterbiRecoversStepChange(t *testing.T) {
	// The tridiagonal prior caps the trackable slope at ±ε per
	// δ-interval, so after a step change the Viterbi path ramps. With a
	// 2.5 Mbps step (5 grid cells) and one observation per interval the
	// ramp completes within 5 chunks of the change.
	m := testModel(t, 10)
	var obs []Observation
	for i := 0; i < 10; i++ {
		obs = append(obs, obsFor(3.0, 4e6, i))
	}
	for i := 10; i < 22; i++ {
		obs = append(obs, obsFor(5.5, 4e6, i))
	}
	inf, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := inf.Path
	for n := 0; n < 7; n++ {
		if math.Abs(m.Capacity(path[n])-3.0) > 0.51 {
			t.Errorf("chunk %d: %v Mbps, want ~3.0", n, m.Capacity(path[n]))
		}
	}
	for n := 16; n < 22; n++ {
		if math.Abs(m.Capacity(path[n])-5.5) > 0.51 {
			t.Errorf("chunk %d: %v Mbps, want ~5.5", n, m.Capacity(path[n]))
		}
	}
	// The ramp itself must be monotone non-decreasing through the change.
	for n := 8; n < 16; n++ {
		if path[n+1] < path[n]-1 {
			t.Errorf("ramp not monotone near change: state %d then %d", path[n], path[n+1])
		}
	}
}

func TestViterbiZeroGapChunksShareState(t *testing.T) {
	// Δ=0 between chunks in the same interval: A^0 = I forces equal
	// states even under conflicting evidence.
	m := testModel(t, 10)
	obs := []Observation{obsFor(3, 4e6, 5), obsFor(8, 4e6, 5)}
	inf, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := inf.Path
	if path[0] != path[1] {
		t.Errorf("zero-gap chunks got different states %d, %d", path[0], path[1])
	}
}

// pairOf rebuilds the S×S pairwise posterior of chunks (n, n+1) from
// the arena of the Infer that just ran on m, one sampler column at a
// time: pairOf(...)[i*S+j] = Γ_{i,j,n}. Infer clears its step matrices
// on return, so the one this pair reads is looked up again by its gap.
func pairOf(m *Model, sc *Scratch, n int) []float64 {
	ns := m.NumStates()
	sc.stepA[n+1], sc.stepBand[n+1] = m.powCache.PowBand(sc.gaps[n+1])
	defer func() { sc.stepA[n+1], sc.stepBand[n+1] = nil, mathx.Band{} }()
	pair, col := make([]float64, ns*ns), make([]float64, ns)
	for j := 0; j < ns; j++ {
		m.pairColumnInto(col, sc, n, j)
		for i, v := range col {
			pair[i*ns+j] = v
		}
	}
	return pair
}

func TestForwardBackwardGammaNormalized(t *testing.T) {
	m := testModel(t, 10)
	sc := NewScratch()
	m.SetScratch(sc)
	var obs []Observation
	for i := 0; i < 15; i++ {
		obs = append(obs, obsFor(5, 3e6, i*2))
	}
	inf, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	post := inf.Post
	for n := 0; n < post.Len(); n++ {
		var s float64
		for _, v := range post.Gamma(n) {
			if v < -1e-12 {
				t.Fatalf("negative posterior at chunk %d", n)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Gamma[%d] sums to %v", n, s)
		}
	}
	for n := 0; n < post.Len()-1; n++ {
		var s float64
		for _, v := range pairOf(m, sc, n) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Pair[%d] sums to %v", n, s)
		}
	}
}

func TestPairMarginalsMatchGamma(t *testing.T) {
	m := testModel(t, 10)
	sc := NewScratch()
	m.SetScratch(sc)
	var obs []Observation
	for i := 0; i < 12; i++ {
		cap := 4.0
		if i >= 6 {
			cap = 7.0
		}
		obs = append(obs, obsFor(cap, 3e6, i))
	}
	inf, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	post := inf.Post
	ns := m.NumStates()
	for n := 0; n < post.Len()-1; n++ {
		pair := pairOf(m, sc, n)
		for i := 0; i < ns; i++ {
			var rowSum float64
			for j := 0; j < ns; j++ {
				rowSum += pair[i*ns+j]
			}
			if math.Abs(rowSum-post.Gamma(n)[i]) > 1e-6 {
				t.Fatalf("Σ_j Pair[%d][%d][j] = %v != Gamma[%d][%d] = %v",
					n, i, rowSum, n, i, post.Gamma(n)[i])
			}
		}
		for j := 0; j < ns; j++ {
			var colSum float64
			for i := 0; i < ns; i++ {
				colSum += pair[i*ns+j]
			}
			if math.Abs(colSum-post.Gamma(n + 1)[j]) > 1e-6 {
				t.Fatalf("Σ_i Pair[%d][i][%d] = %v != Gamma[%d][%d] = %v",
					n, j, colSum, n+1, j, post.Gamma(n + 1)[j])
			}
		}
	}
}

func TestGammaPeaksNearTruth(t *testing.T) {
	m := testModel(t, 10)
	var obs []Observation
	for i := 0; i < 20; i++ {
		obs = append(obs, obsFor(6.5, 4e6, i))
	}
	inf, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	post := inf.Post
	for n := 0; n < post.Len(); n++ {
		g := post.Gamma(n)
		bi := 0
		for i, v := range g {
			if v > g[bi] {
				bi = i
			}
		}
		if math.Abs(m.Capacity(bi)-6.5) > 0.51 {
			t.Errorf("chunk %d posterior mode %v Mbps, want ~6.5", n, m.Capacity(bi))
		}
	}
}

func TestSampleMatchesViterbiOnSharpPosterior(t *testing.T) {
	m := testModel(t, 10)
	var obs []Observation
	for i := 0; i < 15; i++ {
		obs = append(obs, obsFor(5, 5e6, i))
	}
	inf, err := m.Infer(obs, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	viterbi, seq := inf.Path, inf.Samples[0]
	// With noiseless synthetic observations, the posterior is sharp and
	// samples should equal the Viterbi path everywhere.
	for n := range seq {
		if seq[n] != viterbi[n] {
			t.Errorf("chunk %d sampled %d, viterbi %d", n, seq[n], viterbi[n])
		}
	}
}

func TestSampleKDeterministicSeed(t *testing.T) {
	m := testModel(t, 10)
	var obs []Observation
	for i := 0; i < 10; i++ {
		// Small chunks leave capacity ambiguous, so samples vary.
		obs = append(obs, obsFor(5, 50e3, i))
	}
	a, err := m.Infer(obs, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Infer(obs, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != 4 {
		t.Fatalf("%d samples, want 4", len(a.Samples))
	}
	for s := range a.Samples {
		for n := range a.Samples[s] {
			if a.Samples[s][n] != b.Samples[s][n] {
				t.Fatal("same seed produced different samples")
			}
		}
	}
}

func TestSampleKValidation(t *testing.T) {
	m := testModel(t, 10)
	if _, err := m.Infer(nil, 3, 1); err == nil {
		t.Error("empty observations should error")
	}
	obs := []Observation{obsFor(5, 1e6, 0)}
	if _, err := m.Infer(obs, -1, 1); err == nil {
		t.Error("k<0 should error")
	}
	inf, err := m.Infer(obs, 0, 1)
	if err != nil || inf.Samples != nil {
		t.Errorf("k=0 draws no samples and is not an error: %v, %v", inf, err)
	}
}

func TestExpectedCapacityAfter(t *testing.T) {
	m := testModel(t, 10)
	const st = 10 // 5 Mbps on the 0.5 Mbps grid
	// Gap 0: expectation is the state itself.
	if got := m.ExpectedCapacityAfter(st, 0); got != 5 {
		t.Errorf("gap-0 expectation = %v, want 5", got)
	}
	// Interior states: expectation stays near the state for small gaps
	// (symmetric random walk).
	if got := m.ExpectedCapacityAfter(st, 3); math.Abs(got-5) > 0.2 {
		t.Errorf("gap-3 expectation = %v, want ~5", got)
	}
	// Edge state at 0: expectation must drift upward.
	if got := m.ExpectedCapacityAfter(0, 10); got <= 0 {
		t.Errorf("expectation from edge state should rise, got %v", got)
	}
	// Negative gap clamps to 0.
	if got := m.ExpectedCapacityAfter(st, -5); got != 5 {
		t.Errorf("negative gap = %v, want 5", got)
	}
}

func TestAmbiguousSmallChunksHaveWiderPosterior(t *testing.T) {
	m := testModel(t, 10)
	entropy := func(size float64) float64 {
		var obs []Observation
		for i := 0; i < 10; i++ {
			obs = append(obs, obsFor(6, size, i))
		}
		inf, err := m.Infer(obs, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		post := inf.Post
		var h float64
		for _, v := range post.Gamma(5) {
			if v > 1e-12 {
				h -= v * math.Log(v)
			}
		}
		return h
	}
	// Chunks below the BDP tell us little about capacity; the posterior
	// should be strictly more uncertain than with large chunks. This is
	// the uncertainty mechanism behind Figure 7's spread.
	hSmall := entropy(30e3)
	hLarge := entropy(5e6)
	if hSmall <= hLarge {
		t.Errorf("posterior entropy: small-chunk %v <= large-chunk %v", hSmall, hLarge)
	}
}

func TestCustomEstimatorHook(t *testing.T) {
	// An oracle estimator (emission mean = the candidate capacity
	// itself, as if throughput always equaled GTBW) changes inference:
	// the Viterbi path should then track the raw observations instead
	// of inverting the TCP model.
	cfg := DefaultConfig(10)
	cfg.Estimator = func(gtbw float64, _ tcp.State, _ float64) float64 { return gtbw }
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Observation with a cold TCP state whose observed throughput is 3
	// although the true capacity generating it (via f) would be higher.
	cold := tcp.Fresh(0.160)
	cold.SSThresh = 40
	cold.LastSendGap = 5
	var obs []Observation
	for i := 0; i < 10; i++ {
		obs = append(obs, Observation{ThroughputMbps: 3, TCP: cold, SizeBytes: 4e5, StartInterval: i})
	}
	inf, err := m.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := inf.Path
	for n, s := range path {
		if m.Capacity(s) != 3 {
			t.Fatalf("chunk %d: identity estimator should infer 3 Mbps, got %v", n, m.Capacity(s))
		}
	}
	// The default model must infer a higher capacity for the same
	// observations (it knows the cold connection under-reports).
	md := testModel(t, 10)
	infDefault, err := md.Infer(obs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pathDefault := infDefault.Path
	if md.Capacity(pathDefault[5]) <= 3 {
		t.Errorf("default estimator inferred %v, want > 3 (inversion of the cold state)",
			md.Capacity(pathDefault[5]))
	}
}
