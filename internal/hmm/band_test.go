package hmm

import (
	"math"
	"math/rand"
	"testing"

	"veritas/internal/tcp"
)

// TestBandedMatchesDense drives the banded kernels — α/β, Viterbi, the
// per-pair normalizers, the sampler's columns and ExpectedCapacityAfter
// — against the dense oracle over every band width a grid has: sessions
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
			requireMatchesOracle(t, label, m, sc, got, oracleInfer(t, m, obs, 5, seed))

			for state := 0; state < S; state++ {
				for gap := 0; gap <= S+2; gap++ {
					g, w := m.ExpectedCapacityAfter(state, gap), oracleExpectedCapacityAfter(m, state, gap)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: ExpectedCapacityAfter(%d, %d) = %v, want %v", label, state, gap, g, w)
					}
				}
			}
			m.SetScratch(nil)
		}
	}
}

// FuzzEmissionRow checks the copied emission tail against the per-cell
// row: for any TCP state, chunk size, throughput, σ and grid that a
// checked log can carry, emissionRowInto equals the oracle's per-cell
// evaluation bit for bit.
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
		row := make([]float64, m.NumStates())
		m.emissionRowInto(row, o)
		for i, got := range row {
			if want := oracleEmissionLogProb(m, o, i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cell %d (%v Mbps) = %v, per-cell %v (state %+v, size %v)", i, m.Capacity(i), got, want, o.TCP, size)
			}
		}
	})
}
