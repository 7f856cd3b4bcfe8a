// Package hmm implements the Embedded Hidden Markov Model at the heart
// of Veritas (paper §3.2): a Markov chain over quantized ground-truth
// bandwidth (GTBW) states whose transitions between consecutive chunks
// use A^Δn (Δn = number of δ-length wall-clock intervals between the
// chunks' start times) and whose emissions embed the domain-specific TCP
// throughput estimator f:
//
//	P(Y_n | W_sn, S_n, C_sn = c) = Normal(f(c, W_sn, S_n), σ²).
//
// The chunk chain has one forward pass (forward): per chunk it
// evaluates the emission row once and feeds it to the Viterbi variant
// (Algorithm 3) and to the scaled forward recursion (Algorithm 2's α).
// Infer runs it and draws the posterior capacity samples (Algorithm 1)
// backward from α alone: the column of the pairwise posterior Γ that
// each draw reads is α_n(i)·A^Δ(i, s) times one constant, so no β, no
// marginal and no normalizer is computed, and an armed session holds
// one N×S slab. ViterbiPath runs the same pass with back-pointers for
// the full path, and LastViterbiState with neither α nor back-pointers
// for the interventional query. FitTransitions is Baum–Welch
// re-estimation of A on the chain over every δ-interval, an extension
// beyond the paper, and the package's one α/β pass (alphaBeta). Every
// loop over a step matrix runs over its mathx.Band: the tridiagonal
// prior's A^Δ has half-width Δ, and the entries skipped are exact
// zeros, so results are bit-identical to dense loops (oracle_test.go
// keeps those). The forward step of both chains is mathx's VecMulInto,
// the step the prior's power cache walks by too. The steps A^Δ come
// from that cache: a gap below mathx.PowerPrefix is read off its
// prefix, and a longer one — a log whose chunks start far apart — is
// walked for the one call and not kept, so no log pins memory in the
// shared cache or holds its lock for the length of its gap.
package hmm

import (
	"errors"
	"fmt"
	"math"

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
	case !(c.DeltaSecs > 0 && c.DeltaSecs < math.Inf(1)):
		return fmt.Errorf("hmm: DeltaSecs %v outside (0, +Inf)", c.DeltaSecs)
	case !(c.Sigma > 0 && c.Sigma < math.Inf(1)):
		return fmt.Errorf("hmm: Sigma %v outside (0, +Inf)", c.Sigma)
	case !(c.StayProb > 0 && c.StayProb < 1):
		return fmt.Errorf("hmm: StayProb %v outside (0, 1)", c.StayProb)
	case c.Prior != "" && c.Prior != "tridiagonal" && c.Prior != "uniform":
		return fmt.Errorf("hmm: unknown prior %q (want tridiagonal or uniform)", c.Prior)
	}
	return nil
}

// Model is an immutable EHMM ready for inference (the optional scratch
// arena attached via SetScratch is the one piece of mutable state, and
// it never influences results). Construct with New. The capacity grid
// and the uniform initial distribution are arithmetic on cfg and ns
// (Capacity, initMass); the transition matrix is powCache's A^1.
type Model struct {
	cfg      Config
	ns       int // S, the size of the capacity grid
	powCache *mathx.PowerCache
	sc       *Scratch // optional reusable inference arena
}

// priorKey is everything the transition prior reads: the grid size,
// the prior's structure and, for the tridiagonal prior only, StayProb.
// It keys the process-wide power registry, so models with equal keys
// share one cache and the S×S matrix is built once per key.
type priorKey struct {
	states  int
	uniform bool
	stay    float64
}

// New builds the model: a capacity grid {0, ε, 2ε, …, ⌊Max/ε⌋·ε}, a
// tridiagonal (or uniform) transition matrix and a uniform initial
// distribution. Transition powers A^k come from the process-wide cache
// keyed by the prior (mathx.SharedPowers), so sessions with identical
// capacity grids build the matrix and compute each power once instead
// of once per session; shared and private caches build powers by the
// same sequential walk, so which one serves a model never changes a
// result.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(math.Floor(cfg.MaxMbps/cfg.EpsMbps)) + 1
	key := priorKey{states: n, uniform: cfg.Prior == "uniform"}
	if !key.uniform {
		key.stay = cfg.StayProb
	}
	powers := mathx.SharedPowers(key, func() *mathx.Matrix {
		if !key.uniform {
			return Tridiagonal(n, key.stay)
		}
		u := mathx.NewMatrix(n, n)
		for i := range u.Data {
			u.Data[i] = 1 / float64(n)
		}
		return u
	})
	return &Model{cfg: cfg, ns: n, powCache: powers}, nil
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

// NumStates returns the size of the capacity grid.
func (m *Model) NumStates() int { return m.ns }

// Capacity returns the GTBW in Mbps of state index i: iε.
func (m *Model) Capacity(i int) float64 { return float64(i) * m.cfg.EpsMbps }

// initMass returns every state's probability under the uniform initial
// distribution.
func (m *Model) initMass() float64 { return 1 / float64(m.ns) }

// gapsInto fills d (length len(obs)) with Δn for n = 1..N-1 (d[0] is
// unused, kept for alignment) and validates ordering.
func gapsInto(d []int, obs []Observation) error {
	if len(obs) > 0 {
		d[0] = 0
	}
	for n := 1; n < len(obs); n++ {
		g, err := gapAt(obs[n-1].StartInterval, obs[n].StartInterval, n)
		if err != nil {
			return err
		}
		d[n] = g
	}
	return nil
}

// gapAt returns Δn, the δ-intervals between the start interval prev of
// chunk n−1 and cur of chunk n, or the error for a chunk that starts
// before its predecessor.
func gapAt(prev, cur, n int) (int, error) {
	if cur < prev {
		return 0, fmt.Errorf("hmm: observations out of order at %d (interval %d < %d)", n, cur, prev)
	}
	return cur - prev, nil
}

// emissionRowInto fills row (length S) with one chunk's log-emissions
// per Equation (3), a Gaussian around the embedded throughput
// estimator's prediction: row[i] = log P(Y | W, S, C = iε). It is the
// package's one emission evaluator — the forward pass calls it once per
// chunk, FitTransitions once per chunk before grouping rows by interval.
//
// The predictions fill the row first: the paper's estimator by one walk
// of the congestion window across the grid (tcp.EstimateRow), a custom
// Estimator cell by cell. A cell that predicts what the cell before it
// predicted — every cell past the capacity where the estimator stops
// depending on the link — reuses that cell's density.
func (m *Model) emissionRowInto(row []float64, o Observation) {
	if est := m.cfg.Estimator; est != nil {
		for i := range row {
			row[i] = est(m.Capacity(i), o.TCP, o.SizeBytes)
		}
	} else {
		tcp.EstimateRow(row, m.cfg.EpsMbps, o.TCP, o.SizeBytes)
	}
	var mu, logp float64
	for i, pred := range row {
		if i == 0 || pred != mu {
			mu, logp = pred, mathx.NormalLogPDF(o.ThroughputMbps, pred, m.cfg.Sigma)
		}
		row[i] = logp
	}
}

// ErrNoObservations is returned by Infer, ViterbiPath, LastViterbiState
// and FitTransitions on empty input.
var ErrNoObservations = errors.New("hmm: no observations")

// ErrNegativeSamples is Infer's error for a negative sample count.
var ErrNegativeSamples = errors.New("hmm: Infer requires k >= 0")
