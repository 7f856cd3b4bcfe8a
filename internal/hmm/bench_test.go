package hmm

import (
	"math/rand"
	"testing"
)

// The layer's own benchmarks (ROADMAP aim 1: "nothing times hmm.Infer
// … in isolation"). Chunks start 4 s apart on the paper's δ = 5 s, so
// Δn is 0 or 1 — the regime every engine session is in.

func benchSession(n int) []Observation {
	return noisySession(rand.New(rand.NewSource(1)), n, func(i int) int { return (i+1)*4/5 - i*4/5 })
}

// BenchmarkInfer is one engine worker's abduction core: 300 chunks on
// the default 21-state grid, K = 5, through a recycled Scratch.
func BenchmarkInfer(b *testing.B) {
	m, err := New(DefaultConfig(10))
	if err != nil {
		b.Fatal(err)
	}
	m.SetScratch(NewScratch())
	obs := benchSession(300)
	if _, err := m.Infer(obs, 5, 1); err != nil { // grow the slabs once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Infer(obs, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferWide is a fast link's grid: 300 chunks on 91 states
// (45 Mbps at ε = 0.5), Δn cycling 0, 1, 2, K = 5, with no arena
// attached — the way a kept abduction runs — so every slab Infer sizes
// shows up in B/op.
func BenchmarkInferWide(b *testing.B) {
	m, err := New(DefaultConfig(45))
	if err != nil {
		b.Fatal(err)
	}
	obs := noisySession(rand.New(rand.NewSource(1)), 300, func(i int) int { return i % 3 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Infer(obs, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitTransitions is the abl-em experiment's shape: 3 Baum–Welch
// iterations over a 90-chunk session with no arena attached (the
// experiment keeps its abductions, so each one owns its buffers).
func BenchmarkFitTransitions(b *testing.B) {
	m, err := New(DefaultConfig(10))
	if err != nil {
		b.Fatal(err)
	}
	obs := benchSession(90)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FitTransitions(obs, 3, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
