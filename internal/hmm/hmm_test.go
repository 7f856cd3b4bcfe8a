package hmm

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
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
		// Non-finite values that compare false against every bound.
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: 5, Sigma: 0.5, StayProb: math.NaN()},
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: 5, Sigma: math.NaN(), StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: 5, Sigma: math.Inf(1), StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: math.NaN(), Sigma: 0.5, StayProb: 0.8},
		{EpsMbps: 0.5, MaxMbps: 10, DeltaSecs: math.Inf(1), Sigma: 0.5, StayProb: 0.8},
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

// TestNewSharesPowersByPriorKey pins what the power registry key holds:
// exactly what the transition prior reads. Equal priors share one
// cache whatever else differs; a different grid, StayProb or structure
// does not.
func TestNewSharesPowersByPriorKey(t *testing.T) {
	base := DefaultConfig(10)
	cache := func(edit func(*Config)) *mathx.PowerCache {
		t.Helper()
		cfg := base
		edit(&cfg)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.powCache
	}
	d0 := mathx.SharedPowersDetail()
	want := cache(func(*Config) {})
	for _, c := range []struct {
		name  string
		edit  func(*Config)
		share bool
	}{
		{"same config", func(*Config) {}, true},
		{`prior "tridiagonal"`, func(c *Config) { c.Prior = "tridiagonal" }, true},
		{"other sigma and delta", func(c *Config) { c.Sigma, c.DeltaSecs = 2, 1 }, true},
		{"other grid, same S", func(c *Config) { c.EpsMbps, c.MaxMbps = 1, 20 }, true},
		{"other S", func(c *Config) { c.MaxMbps = 10.5 }, false},
		{"other stay", func(c *Config) { c.StayProb = 0.7 }, false},
		{"uniform", func(c *Config) { c.Prior = "uniform" }, false},
	} {
		if got := cache(c.edit); (got == want) != c.share {
			t.Errorf("%s: shares the default's cache = %v, want %v", c.name, got == want, c.share)
		}
	}
	// The uniform prior reads no StayProb, so its key holds none.
	u := cache(func(c *Config) { c.Prior = "uniform" })
	if cache(func(c *Config) { c.Prior, c.StayProb = "uniform", 0.3 }) != u {
		t.Error("uniform priors with different StayProb got different caches")
	}
	if d := mathx.SharedPowersDetail().Sub(d0); d.Hits+d.Misses() != 10 {
		t.Errorf("%d lookups for 10 models, want one each", d.Hits+d.Misses())
	}
}

// TestNewPastRegistryCap fills the process-wide registry, which cannot
// be emptied again, so it runs itself in a child process of the test
// binary.
func TestNewPastRegistryCap(t *testing.T) {
	if os.Getenv("HMM_TEST_FULL_REGISTRY") != "1" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNewPastRegistryCap$", "-test.v")
		cmd.Env = append(os.Environ(), "HMM_TEST_FULL_REGISTRY=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: TestNewPastRegistryCap") {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	type filler int
	d0 := mathx.SharedPowersDetail()
	for i := 0; mathx.SharedPowersDetail().Sub(d0).CapacityMisses == 0; i++ {
		if i > 100000 {
			t.Fatal("the registry never filled")
		}
		mathx.SharedPowers(filler(i), func() *mathx.Matrix { return mathx.Identity(1) })
	}
	cfg := DefaultConfig(12.5)
	d1 := mathx.SharedPowersDetail()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.powCache == b.powCache {
		t.Error("past the cap, two models shared a cache")
	}
	if d := mathx.SharedPowersDetail().Sub(d1); d.CapacityMisses != 2 || d.Hits+d.Misses() != 2 {
		t.Errorf("past the cap: %+v, want 2 capacity misses", d)
	}
	if !a.powCache.Pow(3).Equal(densePowers(Tridiagonal(a.NumStates(), cfg.StayProb), 3)[3]) {
		t.Error("a private cache serves other powers than the prior's")
	}
}

// TestNewAllocatesOnlyTheModel: once a prior's key is in the registry,
// New builds no grid, matrix or vector — the Model is its one
// allocation.
func TestNewAllocatesOnlyTheModel(t *testing.T) {
	for _, prior := range []string{"", "uniform"} {
		cfg := DefaultConfig(14.5)
		cfg.Prior = prior
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { New(cfg) }); n > 1 {
			t.Errorf("prior %q: warm New allocates %v times, want 1", prior, n)
		}
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

// rowStochastic reports whether every row of m sums to 1 within tol and
// no entry is below −tol.
func rowStochastic(m *mathx.Matrix, tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < -tol {
				return false
			}
			s += v
		}
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
}

func TestTridiagonalStochastic(t *testing.T) {
	for _, n := range []int{1, 2, 5, 21} {
		a := Tridiagonal(n, 0.8)
		if !rowStochastic(a, 1e-12) {
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
	if !rowStochastic(ten, 1e-9) {
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
	path, ll, err := m.ViterbiPath(obs)
	if err != nil {
		t.Fatal(err)
	}
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
	path, _, err := m.ViterbiPath(obs)
	if err != nil {
		t.Fatal(err)
	}
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
	path, _, err := m.ViterbiPath(obs)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != path[1] {
		t.Errorf("zero-gap chunks got different states %d, %d", path[0], path[1])
	}
}

// TestForwardBackwardGammaNormalized: the marginals Infer's α completes
// to, and every pairwise posterior Γ built from that α through pairInto,
// are distributions.
func TestForwardBackwardGammaNormalized(t *testing.T) {
	m := testModel(t, 10)
	var obs []Observation
	for i := 0; i < 15; i++ {
		obs = append(obs, obsFor(5, 3e6, i*2))
	}
	post := posteriorOf(t, m, obs)
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
		for _, v := range post.pair(n) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Pair[%d] sums to %v", n, s)
		}
	}
}

// TestPairMarginalsMatchGamma: Γ built through pairInto from Infer's α
// sums, row by row and column by column, to the marginals of its two
// chunks.
func TestPairMarginalsMatchGamma(t *testing.T) {
	m := testModel(t, 10)
	var obs []Observation
	for i := 0; i < 12; i++ {
		cap := 4.0
		if i >= 6 {
			cap = 7.0
		}
		obs = append(obs, obsFor(cap, 3e6, i))
	}
	post := posteriorOf(t, m, obs)
	ns := m.NumStates()
	for n := 0; n < post.Len()-1; n++ {
		pair := post.pair(n)
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
	post := posteriorOf(t, m, obs)
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
	viterbi, _, err := m.ViterbiPath(obs)
	if err != nil {
		t.Fatal(err)
	}
	seq := inf.Samples[0]
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

// TestExpectedCapacityAfterGrowsNoPowers: a query 5,000 δ-intervals
// past its log reads A^1 alone. The model's shared power cache retains
// no new power, and the answer equals the row of the oracle's A^5000,
// bit for bit.
func TestExpectedCapacityAfterGrowsNoPowers(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.StayProb = 0.61 // a prior key no other test shares
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const gap = 5000
	for _, state := range []int{0, 7, m.NumStates() - 1} {
		before := m.powCache.Retained()
		got := m.ExpectedCapacityAfter(state, gap)
		if after := m.powCache.Retained(); after != before {
			t.Errorf("ExpectedCapacityAfter(%d, %d) grew the shared cache from %d to %d powers", state, gap, before, after)
		}
		if want := oracleExpectedCapacityAfter(m, state, gap); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ExpectedCapacityAfter(%d, %d) = %v, want %v", state, gap, got, want)
		}
	}
}

// TestFarGapRetainsOnlyThePrefix: LastViterbiState and Infer over a log
// of two records 20,000 δ-intervals apart, under a prior key no other
// test uses (S = 21), step through A^20000, which the shared power cache
// walks past its prefix and does not keep: afterwards it retains at most
// mathx.PowerPrefix powers. The last state, the path's score, the
// log-likelihood and the samples equal the oracle's, whose powers come
// from the dense walk, bit for bit.
func TestFarGapRetainsOnlyThePrefix(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.StayProb = 0.59 // a prior key no other test shares
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const gap = 20000
	obs := noisySession(rand.New(rand.NewSource(50)), 2, func(int) int { return gap })
	last, err := lastState(m, obs)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	m.SetScratch(sc)
	got, err := m.Infer(obs, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.powCache.Retained(); r > mathx.PowerPrefix {
		t.Errorf("after a gap of %d the shared cache retains %d powers, more than the prefix's %d", gap, r, mathx.PowerPrefix)
	}
	want := oracleInfer(t, m, obs, 5, 50)
	if last != want.Path[1] {
		t.Errorf("LastViterbiState = %d, want the oracle's %d", last, want.Path[1])
	}
	requireMatchesOracle(t, "far-gap", m, sc, obs, got, want)
}

func TestAmbiguousSmallChunksHaveWiderPosterior(t *testing.T) {
	m := testModel(t, 10)
	entropy := func(size float64) float64 {
		var obs []Observation
		for i := 0; i < 10; i++ {
			obs = append(obs, obsFor(6, size, i))
		}
		post := posteriorOf(t, m, obs)
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
	path, _, err := m.ViterbiPath(obs)
	if err != nil {
		t.Fatal(err)
	}
	for n, s := range path {
		if m.Capacity(s) != 3 {
			t.Fatalf("chunk %d: identity estimator should infer 3 Mbps, got %v", n, m.Capacity(s))
		}
	}
	// The default model must infer a higher capacity for the same
	// observations (it knows the cold connection under-reports).
	md := testModel(t, 10)
	pathDefault, _, err := md.ViterbiPath(obs)
	if err != nil {
		t.Fatal(err)
	}
	if md.Capacity(pathDefault[5]) <= 3 {
		t.Errorf("default estimator inferred %v, want > 3 (inversion of the cold state)",
			md.Capacity(pathDefault[5]))
	}
}
