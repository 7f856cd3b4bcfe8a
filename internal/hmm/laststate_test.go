package hmm

import (
	"fmt"
	"math/rand"
	"testing"
)

// lastState runs LastViterbiState over a slice.
func lastState(m *Model, obs []Observation) (int, error) {
	return m.LastViterbiState(len(obs), func(i int) Observation { return obs[i] })
}

// lastStateSessions are the oracle sessions plus random ones on several
// grids: gaps from 0 to past the grid's width, zero-throughput chunks,
// and lengths from one chunk to 300.
func lastStateSessions() []struct {
	name string
	obs  []Observation
} {
	out := oracleSessions()
	rng := rand.New(rand.NewSource(44))
	for i, n := range []int{1, 2, 3, 17, 60, 128, 300} {
		maxGap := 1 + i*3
		obs := noisySession(rng, n, func(int) int { return rng.Intn(maxGap + 1) })
		for j := range obs {
			if rng.Intn(7) == 0 {
				obs[j].ThroughputMbps = 0
			}
		}
		out = append(out, struct {
			name string
			obs  []Observation
		}{name: fmt.Sprintf("random-%d", n), obs: obs})
	}
	return out
}

// TestLastViterbiStateMatchesInfer checks the O(S) recursion against
// the last state Infer pins its samples to and the last entry of the
// dense oracle's Viterbi path, for
// the paper's prior, the uniform prior and an EM-fitted matrix, with no
// arena and with one arena recycled between Infer and LastViterbiState
// on shapes that grow and shrink.
func TestLastViterbiStateMatchesInfer(t *testing.T) {
	recycled := NewScratch()
	for _, v := range []struct {
		name    string
		maxMbps float64
		prior   string
		fit     bool
	}{
		{"tridiagonal/S=21", 10, "tridiagonal", false},
		{"tridiagonal/S=7", 3, "tridiagonal", false},
		{"uniform/S=21", 10, "uniform", false},
		{"fitted/S=21", 10, "tridiagonal", true},
	} {
		cfg := DefaultConfig(v.maxMbps)
		cfg.Prior = v.prior
		base, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range lastStateSessions() {
			for _, sc := range []*Scratch{nil, recycled} {
				label := v.name + "/" + s.name
				base.SetScratch(sc)
				m := base
				if v.fit && s.obs[len(s.obs)-1].StartInterval >= 1 {
					fit, err := m.FitTransitions(s.obs, 2, 0.1)
					if err != nil {
						t.Fatalf("%s: fit: %v", label, err)
					}
					m = fit.Model
				}
				got, err := lastState(m, s.obs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				dense := oracleInfer(t, m, s.obs, 0, 1).Path
				inf, err := m.Infer(s.obs, 2, 1)
				if err != nil {
					t.Fatalf("%s: Infer: %v", label, err)
				}
				N := len(s.obs)
				if want := inf.Last; got != want || got != dense[N-1] {
					t.Fatalf("%s: LastViterbiState = %d, want Infer's %d (dense oracle %d)", label, got, want, dense[N-1])
				}
				base.SetScratch(nil)
			}
		}
	}
}

// TestLastViterbiStateErrorsMatchInfer: an empty and an out-of-order
// sequence are refused with Infer's errors.
func TestLastViterbiStateErrorsMatchInfer(t *testing.T) {
	m := testModel(t, 10)
	ooo := []Observation{obsFor(5, 1e6, 0), obsFor(5, 1e6, 3), obsFor(5, 1e6, 4), obsFor(5, 1e6, 2)}
	for _, obs := range [][]Observation{nil, ooo} {
		_, want := m.Infer(obs, 1, 1)
		_, got := lastState(m, obs)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%d observations: LastViterbiState error %v, want Infer's %v", len(obs), got, want)
		}
	}
	if _, err := m.Infer(ooo[:1], -1, 1); err != ErrNegativeSamples {
		t.Fatalf("Infer with k = -1: %v, want ErrNegativeSamples", err)
	}
}

// TestLastViterbiStateAllocatesNothingWarm: through an arena that holds
// its S-vectors, the recursion allocates nothing, whatever the length.
func TestLastViterbiStateAllocatesNothingWarm(t *testing.T) {
	m := testModel(t, 10)
	m.SetScratch(NewScratch())
	obs := benchSession(300)
	if _, err := lastState(m, obs); err != nil { // grow the vectors, warm the powers
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := lastState(m, obs); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("warm LastViterbiState: %v allocs, want 0", a)
	}
}
