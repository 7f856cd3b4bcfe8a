package hmm

import (
	"sync"
	"testing"
)

// sessionObs fabricates one session's observation sequence. Mixing
// chunk sizes keeps the posterior partly ambiguous so the sampler's
// weight paths are exercised, and the gap pattern varies the Δn set.
func sessionObs(n int, gtbw float64, sizes []float64) []Observation {
	obs := make([]Observation, n)
	interval := 0
	for i := 0; i < n; i++ {
		obs[i] = obsFor(gtbw, sizes[i%len(sizes)], interval)
		interval += 1 + i%3
	}
	return obs
}

// inferFresh runs Infer on a model with no arena attached — the
// reference every arena run is compared against bit for bit.
func inferFresh(t *testing.T, obs []Observation, k int, seed int64) *Inference {
	t.Helper()
	m := testModel(t, 10)
	inf, err := m.Infer(obs, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

// requireEqualInference asserts two inferences are bit-identical: last
// state, scores and samples.
func requireEqualInference(t *testing.T, label string, got, want *Inference) {
	t.Helper()
	if got.Last != want.Last {
		t.Fatalf("%s: last state %d, want %d", label, got.Last, want.Last)
	}
	if got.PathLogProb != want.PathLogProb {
		t.Errorf("%s: PathLogProb %v, want %v", label, got.PathLogProb, want.PathLogProb)
	}
	if got.LogLikelihood != want.LogLikelihood {
		t.Errorf("%s: log-likelihood %v, want %v", label, got.LogLikelihood, want.LogLikelihood)
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

// TestScratchNoCrossSessionBleed recycles one arena through sessions of
// shrinking, growing and degenerate shapes and checks every result is
// bit-identical to a fresh-arena run. After the large first session the
// slabs are full of stale values; any cell read before being written
// would show up here. Between sessions the arena's generator is drawn
// from, a different number of times each, as a worker's deployed
// connection draws from it: the sampler must reseed it, never continue
// another user's sequence.
func TestScratchNoCrossSessionBleed(t *testing.T) {
	sizes := []float64{5e6, 40e3, 2e6, 80e3}
	sessions := []struct {
		name string
		obs  []Observation
		// fitFirst runs a Baum–Welch fit through the arena before the
		// inference: the interval chain uses the same slabs with T
		// positions instead of N, so it leaves them full of values from
		// a different shape.
		fitFirst bool
	}{
		{"large", sessionObs(60, 6.5, sizes), false},
		{"small-after-large", sessionObs(5, 3.0, sizes), false},
		{"single-chunk", sessionObs(1, 8.0, sizes), false},
		{"regrow", sessionObs(45, 4.5, sizes), false},
		{"two-chunks", sessionObs(2, 7.0, sizes), false},
		{"after-fit", sessionObs(20, 5.0, sizes), true},
		{"after-fit-shrunk", sessionObs(3, 6.0, sizes), true},
		{"after-fit-grown", sessionObs(70, 4.0, sizes), true},
	}

	m := testModel(t, 10)
	sc := NewScratch()
	m.SetScratch(sc)
	for i, s := range sessions {
		seed := int64(100 + i)
		rng := sc.Rand()
		for j := 0; j < 1+37*i; j++ {
			rng.NormFloat64()
		}
		if s.fitFirst {
			if _, err := m.FitTransitions(s.obs, 2, 0.1); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
		got, err := m.Infer(s.obs, 4, seed)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		requireEqualInference(t, s.name, got, inferFresh(t, s.obs, 4, seed))
	}
}

// TestScratchAllocationFlat pins the arena's whole point: once the
// slabs are warm, repeat inference through the same Scratch allocates
// only the constant-size result header (Inference), independent of
// session shape.
func TestScratchAllocationFlat(t *testing.T) {
	obs := sessionObs(40, 5.5, []float64{4e6, 60e3})
	m := testModel(t, 10)
	m.SetScratch(NewScratch())
	if _, err := m.Infer(obs, 3, 1); err != nil { // warm the slabs
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Infer(obs, 3, 1); err != nil {
			t.Fatal(err)
		}
	})
	// The Inference alone — the sampler reseeds the arena's generator
	// instead of allocating one, and anything growing with N or S would
	// push this far past the bound.
	if allocs > 1 {
		t.Errorf("warm-arena Infer allocates %v objects per run, want <= 1", allocs)
	}
}

// TestScratchFitTransitionsMatchesFresh runs the EM interval chain and
// the follow-on inference through a shared arena — since PR 23 the two
// chains run over the same slabs, one after the other — and checks
// bit-identity against the no-arena path.
func TestScratchFitTransitionsMatchesFresh(t *testing.T) {
	run := func(sc *Scratch, obs []Observation) *Inference {
		m := testModel(t, 10)
		m.SetScratch(sc)
		fit, err := m.FitTransitions(obs, 3, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := fit.Model.Infer(obs, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		return inf
	}

	sc := NewScratch()
	// Dirty the arena with an unrelated large session first.
	m := testModel(t, 10)
	m.SetScratch(sc)
	if _, err := m.Infer(sessionObs(50, 7.5, []float64{5e6}), 2, 9); err != nil {
		t.Fatal(err)
	}
	// Then fit and infer on shapes that shrink and grow, so each chain
	// finds the other's leftovers in the shared slabs.
	for _, n := range []int{30, 4, 55} {
		obs := sessionObs(n, 5.0, []float64{3e6, 50e3, 1e6})
		requireEqualInference(t, "fit-transitions", run(sc, obs), run(nil, obs))
	}
}

// TestScratchReleasesSteps checks that a recycled arena keeps no step
// matrix after Infer returns: a fitted model's powers live in its private
// cache, which the arena of a long-lived worker must not pin.
func TestScratchReleasesSteps(t *testing.T) {
	obs := sessionObs(30, 5.0, []float64{3e6, 50e3})
	m := testModel(t, 10)
	fit, err := m.FitTransitions(obs, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	fit.Model.SetScratch(sc)
	if _, err := fit.Model.Infer(obs, 3, 1); err != nil {
		t.Fatal(err)
	}
	for n, a := range sc.stepA[:cap(sc.stepA)] {
		if a != nil || sc.stepBand[n].RowLo != nil {
			t.Fatalf("step %d still held after Infer", n)
		}
	}
}

// TestScratchConcurrentPerGoroutine is the -race companion to the
// lifetime contract: one Scratch per goroutine is safe even when the
// models share the process-wide transition-power registry, and so is
// ExpectedCapacityAfter, which uses no scratch at all. The race
// detector sees any accidental cross-goroutine state; the checksum
// against a serial reference sees any value corruption.
func TestScratchConcurrentPerGoroutine(t *testing.T) {
	obs := sessionObs(25, 6.0, []float64{4e6, 70e3})
	cfg := DefaultConfig(10)
	want := inferFresh(t, obs, 3, 7)
	wantE := oracleExpectedCapacityAfter(testModel(t, 10), 4, 300)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			m.SetScratch(NewScratch())
			for rep := 0; rep < 5; rep++ {
				inf, err := m.Infer(obs, 3, 7)
				if err != nil {
					t.Error(err)
					return
				}
				if inf.PathLogProb != want.PathLogProb ||
					inf.LogLikelihood != want.LogLikelihood {
					t.Errorf("concurrent arena run diverged from serial reference")
					return
				}
				if got := m.ExpectedCapacityAfter(4, 300); got != wantE {
					t.Errorf("concurrent ExpectedCapacityAfter = %v, serial oracle %v", got, wantE)
					return
				}
			}
		}()
	}
	wg.Wait()
}
