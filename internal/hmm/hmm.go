// Package hmm implements the Embedded Hidden Markov Model at the heart
// of Veritas (paper §3.2): a Markov chain over quantized ground-truth
// bandwidth (GTBW) states whose transitions between consecutive chunks
// use A^Δn (Δn = number of δ-length wall-clock intervals between the
// chunks' start times) and whose emissions embed the domain-specific TCP
// throughput estimator f:
//
//	P(Y_n | W_sn, S_n, C_sn = c) = Normal(f(c, W_sn, S_n), σ²).
//
// The package has two entry points and one way to do each thing. Infer
// runs the paper's three algorithms over one evaluation of the emission
// table: the Viterbi variant (Algorithm 3), the scaled forward–backward
// variant (Algorithm 2), and the posterior capacity sampler
// (Algorithm 1), which computes only the column of the pairwise
// posterior Γ that each step reads — Γ is never stored. FitTransitions
// is Baum–Welch re-estimation of A on the chain over every δ-interval,
// an extension beyond the paper. Both run the same α/β recursion
// (alphaBeta) over the same Scratch slabs; they differ only in what a
// position is (a chunk or an interval) and in the step matrix between
// positions (A^Δn or A). Every loop over a step matrix runs over its
// mathx.Band: the tridiagonal prior's A^Δ has half-width Δ, and the
// entries skipped are exact zeros, so results are bit-identical to
// dense loops (oracle_test.go keeps those).
package hmm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"veritas/internal/mathx"
	"veritas/internal/tcp"
)

// Observation is the per-chunk evidence the EHMM conditions on: the
// observed throughput Y_n, the TCP control state W_sn, the chunk size
// S_n, and the δ-interval index of the chunk's start time s_n.
type Observation struct {
	ThroughputMbps float64
	TCP            tcp.State
	SizeBytes      float64
	StartInterval  int // floor(s_n / δ)
}

// Config parameterizes the model. The paper's evaluation uses δ = 5 s,
// ε = 0.5 Mbps, σ = 0.5 Mbps, a tridiagonal transition matrix and a
// uniform initial distribution.
type Config struct {
	EpsMbps   float64 // ε: capacity quantization step
	MaxMbps   float64 // top of the capacity grid (inclusive)
	DeltaSecs float64 // δ: wall-clock seconds per GTBW interval
	Sigma     float64 // σ: emission noise standard deviation, Mbps
	// StayProb is the tridiagonal self-transition probability; the
	// remainder splits evenly between the two neighbours (edge states
	// give the whole remainder to their single neighbour).
	StayProb float64
	// Prior selects the transition structure: "" or "tridiagonal" for
	// the paper's stability prior, "uniform" for an uninformative prior
	// (used by the ablation experiments to show what the Markov
	// structure contributes).
	Prior string
	// Estimator overrides the throughput model embedded in the
	// emissions. Nil means the paper's estimator f
	// (tcp.EstimateThroughput). The paper notes that "more detailed
	// models that capture intricate details of specific TCP versions
	// can be easily incorporated" — this is that hook: supply a model
	// of, e.g., BBR, and the rest of the inference machinery is reused
	// unchanged.
	Estimator func(gtbwMbps float64, st tcp.State, sizeBytes float64) float64
}

// maxStates bounds the capacity grid: 1 Gbps at the paper's ε = 0.5 Mbps.
// The transition matrix and every cached power of it are S × S, and the
// grid is usually sized from numbers read out of a session log, so
// without a bound one absurd throughput value asks for terabytes.
const maxStates = 2001

// DefaultConfig mirrors the paper's hyperparameters for a grid reaching
// maxMbps.
func DefaultConfig(maxMbps float64) Config {
	return Config{
		EpsMbps:   0.5,
		MaxMbps:   maxMbps,
		DeltaSecs: 5,
		Sigma:     0.5,
		StayProb:  0.8,
	}
}

// Validate reports the first problem with the config, if any.
func (c Config) Validate() error {
	switch {
	case c.EpsMbps <= 0:
		return fmt.Errorf("hmm: EpsMbps %v <= 0", c.EpsMbps)
	case c.MaxMbps < c.EpsMbps:
		return fmt.Errorf("hmm: MaxMbps %v < EpsMbps %v", c.MaxMbps, c.EpsMbps)
	case !(c.MaxMbps/c.EpsMbps < maxStates):
		return fmt.Errorf("hmm: MaxMbps %v / EpsMbps %v is a grid of more than %d states", c.MaxMbps, c.EpsMbps, maxStates)
	case c.DeltaSecs <= 0:
		return fmt.Errorf("hmm: DeltaSecs %v <= 0", c.DeltaSecs)
	case c.Sigma <= 0:
		return fmt.Errorf("hmm: Sigma %v <= 0", c.Sigma)
	case c.StayProb <= 0 || c.StayProb >= 1:
		return fmt.Errorf("hmm: StayProb %v outside (0, 1)", c.StayProb)
	case c.Prior != "" && c.Prior != "tridiagonal" && c.Prior != "uniform":
		return fmt.Errorf("hmm: unknown prior %q (want tridiagonal or uniform)", c.Prior)
	}
	return nil
}

// Model is an immutable EHMM ready for inference (the optional scratch
// arena attached via SetScratch is the one piece of mutable state, and
// it never influences results). Construct with New.
type Model struct {
	cfg      Config
	states   []float64 // states[i] = i*ε Mbps
	initDist []float64 // uniform u
	trans    *mathx.Matrix
	powCache *mathx.PowerCache
	sc       *Scratch // optional reusable inference arena
}

// New builds the model: a capacity grid {0, ε, 2ε, …, ⌊Max/ε⌋·ε}, a
// tridiagonal transition matrix and a uniform initial distribution.
// Transition powers A^k come from the process-wide cache keyed by the
// matrix (mathx.SharedPowers), so sessions with identical capacity
// grids compute each power once instead of once per session; shared and
// private caches build powers by the same sequential walk, so which one
// serves a model never changes a result.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(math.Floor(cfg.MaxMbps/cfg.EpsMbps)) + 1
	states := make([]float64, n)
	for i := range states {
		states[i] = float64(i) * cfg.EpsMbps
	}
	var trans *mathx.Matrix
	if cfg.Prior == "uniform" {
		trans = mathx.NewMatrix(n, n)
		for i := range trans.Data {
			trans.Data[i] = 1 / float64(n)
		}
	} else {
		trans = Tridiagonal(n, cfg.StayProb)
	}
	init := make([]float64, n)
	for i := range init {
		init[i] = 1 / float64(n)
	}
	return &Model{
		cfg:      cfg,
		states:   states,
		initDist: init,
		trans:    trans,
		powCache: mathx.SharedPowers(trans),
	}, nil
}

// Tridiagonal returns the paper's prior transition matrix: each state
// stays with probability stay and otherwise moves to an adjacent
// capacity, encoding that GTBW is stable but may drift.
func Tridiagonal(n int, stay float64) *mathx.Matrix {
	m := mathx.NewMatrix(n, n)
	if n == 1 {
		m.Set(0, 0, 1)
		return m
	}
	move := 1 - stay
	for i := 0; i < n; i++ {
		switch i {
		case 0:
			m.Set(0, 0, stay)
			m.Set(0, 1, move)
		case n - 1:
			m.Set(n-1, n-1, stay)
			m.Set(n-1, n-2, move)
		default:
			m.Set(i, i, stay)
			m.Set(i, i-1, move/2)
			m.Set(i, i+1, move/2)
		}
	}
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// NumStates returns the size of the capacity grid.
func (m *Model) NumStates() int { return len(m.states) }

// Capacity returns the GTBW in Mbps of state index i.
func (m *Model) Capacity(i int) float64 { return m.states[i] }

// gapsInto fills d (length len(obs)) with Δn for n = 1..N-1 (d[0] is
// unused, kept for alignment) and validates ordering.
func gapsInto(d []int, obs []Observation) error {
	if len(obs) > 0 {
		d[0] = 0
	}
	for n := 1; n < len(obs); n++ {
		g := obs[n].StartInterval - obs[n-1].StartInterval
		if g < 0 {
			return fmt.Errorf("hmm: observations out of order at %d (interval %d < %d)",
				n, obs[n].StartInterval, obs[n-1].StartInterval)
		}
		d[n] = g
	}
	return nil
}

// emissionRowInto fills row (length S) with one chunk's log-emissions
// per Equation (3), a Gaussian around the embedded throughput
// estimator's prediction: row[i] = log P(Y | W, S, C = iε). It is the
// package's one emission evaluator — Infer calls it once per chunk,
// FitTransitions once per chunk before grouping rows by interval.
//
// With the paper's estimator, the capacities past tcp.Saturation — a
// suffix of the grid — all predict the same rate, so the first of them
// is evaluated and copied along the rest of the row. A custom Estimator
// is evaluated cell by cell.
func (m *Model) emissionRowInto(row []float64, o Observation) {
	est := m.cfg.Estimator
	first := len(m.states) // first saturated cell
	if est == nil {
		est = tcp.EstimateThroughput
		if bdp, mbps, ok := tcp.Saturation(o.TCP, o.SizeBytes, m.states[len(m.states)-1]); ok {
			first = sort.Search(len(m.states), func(i int) bool {
				c := m.states[i]
				return c >= mbps && tcp.BDPSegments(c, o.TCP.MinRTT) >= bdp
			})
		}
	}
	for i, c := range m.states[:min(first+1, len(m.states))] {
		row[i] = mathx.NormalLogPDF(o.ThroughputMbps, est(c, o.TCP, o.SizeBytes), m.cfg.Sigma)
	}
	for i := first + 1; i < len(row); i++ {
		row[i] = row[first]
	}
}

// ErrNoObservations is returned by Infer and FitTransitions on empty input.
var ErrNoObservations = errors.New("hmm: no observations")
