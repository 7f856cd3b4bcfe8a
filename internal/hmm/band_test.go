package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"veritas/internal/mathx"
	"veritas/internal/tcp"
)

// TestBandedMatchesDense drives the banded kernels — the forward pass's
// α and Viterbi recursion, ViterbiPath, Γ through pairInto, the
// sampler's draws and ExpectedCapacityAfter — against the dense oracle over every band width a grid has: sessions
// whose gaps cycle through Δ = 0…S+2, so the tridiagonal powers run
// from the identity through half-width k to full width and past it. The
// uniform prior and EM-fitted matrices (smoothed, so dense; and
// unsmoothed, so they keep the prior's zeros) ride along. Every
// comparison is bit for bit, with a fresh and a recycled arena.
func TestBandedMatchesDense(t *testing.T) {
	type variant struct {
		name      string
		maxMbps   float64
		prior     string
		smoothing float64 // < 0: no EM fit
	}
	variants := []variant{
		{"tridiagonal/S=21", 10, "tridiagonal", -1},
		{"tridiagonal/S=7", 3, "tridiagonal", -1},
		{"uniform/S=21", 10, "uniform", -1},
		{"fitted-smoothed/S=21", 10, "tridiagonal", 0.1},
		{"fitted-unsmoothed/S=21", 10, "tridiagonal", 0},
	}
	recycled := NewScratch()
	for vi, v := range variants {
		cfg := DefaultConfig(v.maxMbps)
		cfg.Prior = v.prior
		base, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		S := base.NumStates()
		obs := noisySession(rand.New(rand.NewSource(int64(27+vi))), 2*(S+3), func(i int) int { return i % (S + 3) })
		for _, sc := range []*Scratch{nil, recycled} {
			m := base
			if v.smoothing >= 0 {
				fit, err := base.FitTransitions(obs, 3, v.smoothing)
				if err != nil {
					t.Fatalf("%s: fit: %v", v.name, err)
				}
				m = fit.Model
			}
			m.SetScratch(sc)
			label := v.name
			if sc != nil {
				label += "/recycled"
			}
			seed := int64(100 + vi)
			got, err := m.Infer(obs, 5, seed)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireMatchesOracle(t, label, m, sc, obs, got, oracleInfer(t, m, obs, 5, seed))

			requireExpectedCapacityMatches(t, label, m)
			m.SetScratch(nil)
		}
	}
}

// expectedCapacityPowers keeps the oracle's powers for each A^1 that
// requireExpectedCapacityMatches has checked. A shared cache's A^1
// outlives a test run, so a -count=N run walks each grid's powers once
// (at S = 91 the dense walk to 1,100 is most of the package's time
// under -race).
var expectedCapacityPowers = map[*mathx.Matrix]map[int]*mathx.Matrix{}

// requireExpectedCapacityMatches compares ExpectedCapacityAfter's row
// walk with the row of the oracle's power A^gap, bit for bit, at gaps
// 0 … S+3 — the identity, every band width and full width — and at 63,
// 64, 65, 255, 256, 257, 300 and 1,100, around and past the power
// cache's prefix. It starts from every state, except past gap 3
// on a grid of more than 21 states, where both edges, their neighbours
// and the middle keep the walks quick.
func requireExpectedCapacityMatches(t *testing.T, label string, m *Model) {
	t.Helper()
	S := m.NumStates()
	var gaps []int
	for gap := 0; gap <= S+3; gap++ {
		gaps = append(gaps, gap)
	}
	gaps = append(gaps, 63, 64, 65, 255, 256, 257, 300, 1100)
	a := m.powCache.Pow(1)
	pow, ok := expectedCapacityPowers[a]
	if !ok {
		pow = densePowers(a, gaps...)
		expectedCapacityPowers[a] = pow
	}
	var all []int
	for state := 0; state < S; state++ {
		all = append(all, state)
	}
	for _, gap := range gaps {
		states := all
		if S > 21 && gap > 3 {
			states = []int{0, 1, S / 2, S - 2, S - 1}
		}
		for _, state := range states {
			g, w := m.ExpectedCapacityAfter(state, gap), oracleRowMean(m, pow[gap], state)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: ExpectedCapacityAfter(%d, %d) = %v, want %v", label, state, gap, g, w)
			}
		}
	}
}

// FuzzExpectedCapacityAfter checks the row walk against the row of the
// oracle's power for any state of a tridiagonal grid of up to 41 states
// (MaxMbps ≤ 20), any StayProb and any gap up to 2,000: equal bit for
// bit, the oracle walking its own powers, so no fuzzed prior grows a
// shared cache.
func FuzzExpectedCapacityAfter(f *testing.F) {
	for _, s := range []struct {
		state, gap int
		stay, top  float64
	}{
		{10, 0, 0.8, 10}, {10, 1, 0.8, 10}, {0, 2, 0.5, 10}, {20, 25, 0.99, 10},
		{3, 257, 0.8, 3}, {40, 1100, 0.8, 20}, {1, 2000, 0.5, 0.5}, {5, 700, 1e-9, 5},
	} {
		f.Add(s.state, s.gap, s.stay, s.top)
	}
	f.Fuzz(func(t *testing.T, state, gap int, stay, top float64) {
		if gap < 0 || gap > 2000 || !(top <= 20) {
			return
		}
		cfg := DefaultConfig(top)
		cfg.StayProb = stay
		if cfg.Validate() != nil {
			return
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if state < 0 || state >= m.NumStates() {
			return
		}
		got := m.ExpectedCapacityAfter(state, gap)
		if want := oracleExpectedCapacityAfter(m, state, gap); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ExpectedCapacityAfter(%d, %d) on %d states, StayProb %v = %v, want %v", state, gap, m.NumStates(), stay, got, want)
		}
	})
}

// FuzzEmissionRow checks the emission row — its predictions from one
// walk of the window (tcp.EstimateRow), one density per run of equal
// predictions — against the per-cell row: for any TCP state, chunk
// size, throughput, σ and grid that a checked log can carry,
// emissionRowInto equals the oracle's per-cell evaluation bit for bit,
// with the paper's estimator and with a custom one.
func FuzzEmissionRow(f *testing.F) {
	hot := hotState()
	fresh := tcp.Fresh(0.08)
	idle := fresh
	idle.CWND, idle.LastSendGap = 400, 3
	for _, s := range []struct {
		st                       tcp.State
		size, y, sigma, eps, top float64
	}{
		{hot, 4e6, 5.5, 0.5, 0.5, 10},
		{fresh, 60e3, 1.2, 0.5, 0.5, 10},
		{fresh, 1.5e6, 3, 0.5, 0.5, 100},
		{idle, 300e3, 2, 0.25, 0.5, 40},
		{tcp.State{CWND: 1, SSThresh: 1, MinRTT: 0.02, RTT: 0.02, RTO: 0.2}, 2e6, 0.5, 0.5, 0.5, 20},
		{tcp.State{CWND: 10, SSThresh: 10, MinRTT: 0.08, RTT: 0.08, RTO: 0.2}, 14480, 1.4, 0.5, 0.5, 10},
		{hot, 0, 0, 0.5, 0.5, 10},
	} {
		f.Add(s.st.CWND, s.st.SSThresh, s.st.MinRTT, s.st.RTT, s.st.RTO, s.st.LastSendGap, s.size, s.y, s.sigma, s.eps, s.top)
	}
	f.Fuzz(func(t *testing.T, cwnd, ssthresh, minRTT, rtt, rto, gap, size, y, sigma, eps, top float64) {
		for _, v := range []float64{cwnd, ssthresh, minRTT, rtt, rto, gap, size, y, sigma, eps, top} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		// What the abduction layer's record check admits: windows of at
		// least one segment, sizes up to its 256 MiB cap. The grid is kept
		// small enough for the per-cell oracle to stay quick.
		if cwnd < 1 || ssthresh < 1 || size < 0 || size > 1<<28 || y < 0 {
			return
		}
		cfg := DefaultConfig(top)
		cfg.EpsMbps, cfg.Sigma = eps, sigma
		if cfg.Validate() != nil || top/eps > 400 {
			return
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := Observation{
			ThroughputMbps: y,
			TCP:            tcp.State{CWND: cwnd, SSThresh: ssthresh, MinRTT: minRTT, RTT: rtt, RTO: rto, LastSendGap: gap},
			SizeBytes:      size,
		}
		// A custom Estimator, here one that falls and rises in runs of
		// equal predictions, shares the row's one density per run.
		cfg.Estimator = func(gtbw float64, _ tcp.State, _ float64) float64 { return math.Abs(math.Floor(gtbw) - top/2) }
		custom, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, m.NumStates())
		for _, m := range []*Model{m, custom} {
			m.emissionRowInto(row, o)
			for i, got := range row {
				if want := oracleEmissionLogProb(m, o, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cell %d (%v Mbps) = %v, per-cell %v (state %+v, size %v, custom estimator %v)", i, m.Capacity(i), got, want, o.TCP, size, m.cfg.Estimator != nil)
				}
			}
		}
	})
}

// TestUniformPriorAtFullBandIsDense is the fourth metamorphic
// invariant: the uniform prior has no zero for a band to skip, so every
// power A^Δ with Δ ≥ 1 has a full band — each row and each column spans
// the whole grid — and the banded kernels must read exactly the cells
// the dense oracle reads. On grids of 2, 7, 21 and 91 states it checks
// the bands, then Infer and ViterbiPath (path, score, α, every Γ through
// pairInto, K samples),
// LastViterbiState, ExpectedCapacityAfter and a smoothed Baum–Welch fit
// against the oracle_test.go kernels, bit for bit.
func TestUniformPriorAtFullBandIsDense(t *testing.T) {
	for gi, maxMbps := range []float64{0.5, 3, 10, 45} {
		cfg := DefaultConfig(maxMbps)
		cfg.Prior = "uniform"
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		S := m.NumStates()
		label := fmt.Sprintf("uniform/S=%d", S)
		for gap := 1; gap <= S+2; gap++ {
			_, band := m.powCache.PowBand(gap)
			for i := 0; i < S; i++ {
				if band.RowLo[i] != 0 || band.RowHi[i] != S || band.ColLo[i] != 0 || band.ColHi[i] != S {
					t.Fatalf("%s: A^%d's band at %d is rows [%d, %d), cols [%d, %d), want the full grid",
						label, gap, i, band.RowLo[i], band.RowHi[i], band.ColLo[i], band.ColHi[i])
				}
			}
		}

		n := min(2*(S+3), 60)
		obs := noisySession(rand.New(rand.NewSource(int64(440+gi))), n, func(i int) int { return i % (S + 3) })
		sc := NewScratch()
		m.SetScratch(sc)
		seed := int64(7 + gi)
		got, err := m.Infer(obs, 5, seed)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := oracleInfer(t, m, obs, 5, seed)
		requireMatchesOracle(t, label, m, sc, obs, got, want)
		last, err := lastState(m, obs)
		if err != nil || last != want.Path[n-1] {
			t.Fatalf("%s: LastViterbiState = %d, %v; want the dense oracle's %d", label, last, err, want.Path[n-1])
		}
		requireExpectedCapacityMatches(t, label, m)
		fit, err := m.FitTransitions(obs, 2, 0.1)
		if err != nil {
			t.Fatalf("%s: fit: %v", label, err)
		}
		wantA, _, err := oracleFitTransitions(m, obs, 2, 0.1)
		if err != nil {
			t.Fatalf("%s: oracle fit: %v", label, err)
		}
		for c, v := range wantA.Data {
			if math.Float64bits(fit.Model.powCache.Pow(1).Data[c]) != math.Float64bits(v) {
				t.Fatalf("%s: fitted matrix differs at cell %d: %v, want %v", label, c, fit.Model.powCache.Pow(1).Data[c], v)
			}
		}
	}
}
