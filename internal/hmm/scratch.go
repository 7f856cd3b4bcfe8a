package hmm

import "veritas/internal/mathx"

// Scratch is a reusable inference arena: every buffer the EHMM's hot
// path needs — the log-emission table, the scaled forward/backward
// matrices, the Viterbi score and back-pointer ladders, the posterior
// marginals, the per-pair normalizers and the sampler's weight vector —
// carved from a handful of grow-only strided slabs, O(positions ×
// states) in all (only the EM E-step adds one states × states block).
// There is one set of them: the scaled α/β pass runs over "positions"
// — the N chunks when Infer embeds A^Δn between chunk starts, the T
// δ-intervals when FitTransitions runs Baum–Welch with single steps of
// A — and both chains use the same position × state slabs, sized by
// whichever call runs. A fleet worker allocates one Scratch and recycles
// it across its whole corpus slice: after the first (largest-shaped)
// session, per-session inference is allocation-flat.
//
// Lifetime contract: results produced through a Scratch — Posterior
// marginals, Viterbi paths, sampled paths, observation slices — point
// INTO the arena and are valid only until the next Infer or FitTransitions
// that uses the same Scratch. (FitTransitions' own result, the fitted
// matrix, is freshly allocated: nothing of the interval chain outlives
// the call, which is why it needs no slabs of its own.) Callers that
// retain results across sessions (engine KeepAbductions, ad-hoc API use
// without a scratch) get freshly allocated buffers instead: every entry
// point treats a nil Scratch as "allocate a private one for this call",
// which the result then owns outright.
//
// A Scratch is not safe for concurrent use; give each goroutine its
// own. Reuse is safe across sessions of any shapes, and across the two
// chains, because every slab cell an algorithm reads is written earlier
// in the same call — nothing is carried over, so no state can bleed
// between sessions (see TestScratchNoCrossSessionBleed).
type Scratch struct {
	// position-shaped slabs (P × S, row-major), read and written by the
	// α/β pass
	emitLog []float64 // log-emissions per position
	emit    []float64 // per-position max-rescaled emissions
	alpha   []float64 // scaled forward variables
	beta    []float64 // scaled backward variables

	// position-shaped vectors (P)
	shift []float64 // per-position emission rescale factors
	scale []float64 // forward normalizers

	// chunk-shaped (N × S, N): what Infer decodes from the pass
	gamma []float64 // posterior marginals (escapes into Posterior)
	back  []int     // Viterbi back-pointers
	gaps  []int     // Δn between consecutive chunk starts
	path  []int     // Viterbi path (escapes into Inference)
	total []float64 // pairwise-posterior normalizer per chunk pair
	// the step into chunk n, A^Δn, and its band: looked up once per
	// Infer, read by every pass and every sample, cleared on return
	stepA    []*mathx.Matrix
	stepBand []mathx.Band

	// the EM E-step's one S × S block of pairwise products (Infer never
	// builds a pairwise slab: the sampler computes the column it reads)
	pair []float64

	// state-shaped vectors (S)
	cur, next []float64 // Viterbi score ping-pong
	weighted  []float64 // backward-pass emit×beta products
	weights   []float64 // sampler's categorical weights
	emDen     []float64 // EM visit mass

	// sample slab (K × N ints, escapes into Inference)
	sampleSlab []int
	sampleHdr  [][]int

	// observation buffer (escapes into Abduction via ObservationsInto)
	obs []Observation
}

// NewScratch returns an empty arena; slabs grow on first use and are
// recycled afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// growF resizes a float slab to n cells, reusing capacity when it can.
// Contents are unspecified — every algorithm writes before it reads.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// passSlabs sizes what the α/β pass reads and writes for a chain of p
// positions over s states.
func (sc *Scratch) passSlabs(p, s int) {
	sc.emitLog = growF(sc.emitLog, p*s)
	sc.emit = growF(sc.emit, p*s)
	sc.alpha = growF(sc.alpha, p*s)
	sc.beta = growF(sc.beta, p*s)
	sc.shift = growF(sc.shift, p)
	sc.scale = growF(sc.scale, p)
	sc.weighted = growF(sc.weighted, s)
}

// inferSlabs sizes every buffer of an n-chunk, s-state Infer: the pass
// over n positions plus what Viterbi, the posterior and the sampler
// decode from it — O(n·s) in all.
func (sc *Scratch) inferSlabs(n, s int) {
	sc.passSlabs(n, s)
	sc.gamma = growF(sc.gamma, n*s)
	sc.back = growI(sc.back, n*s)
	sc.total = growF(sc.total, n-1)
	if cap(sc.stepA) < n {
		sc.stepA, sc.stepBand = make([]*mathx.Matrix, n), make([]mathx.Band, n)
	}
	sc.stepA, sc.stepBand = sc.stepA[:n], sc.stepBand[:n]
	sc.gaps = growI(sc.gaps, n)
	sc.path = growI(sc.path, n)
	sc.cur = growF(sc.cur, s)
	sc.next = growF(sc.next, s)
	sc.weights = growF(sc.weights, s)
}

// intervalSlabs sizes a Baum–Welch fit over t δ-intervals: the pass
// over t positions plus the E-step's one S × S block of expected
// transition counts and its S visit masses.
func (sc *Scratch) intervalSlabs(t, s int) {
	sc.passSlabs(t, s)
	sc.pair = growF(sc.pair, s*s)
	sc.emDen = growF(sc.emDen, s)
}

// samples sizes the K × N sample slab and returns per-sample row views.
func (sc *Scratch) samples(k, n int) [][]int {
	sc.sampleSlab = growI(sc.sampleSlab, k*n)
	if cap(sc.sampleHdr) < k {
		sc.sampleHdr = make([][]int, k)
	}
	sc.sampleHdr = sc.sampleHdr[:k]
	for i := 0; i < k; i++ {
		sc.sampleHdr[i] = sc.sampleSlab[i*n : (i+1)*n : (i+1)*n]
	}
	return sc.sampleHdr
}

// Observations returns the arena's reusable observation buffer resized
// to n entries (contents unspecified). The abduction layer fills it per
// session instead of allocating a fresh slice; the same lifetime
// contract applies.
func (sc *Scratch) Observations(n int) []Observation {
	if cap(sc.obs) < n {
		sc.obs = make([]Observation, n)
	}
	sc.obs = sc.obs[:n]
	return sc.obs
}

// scratch returns the model's attached arena, or a fresh private one
// when none is attached — the allocate-per-call behavior pre-arena
// callers expect.
func (m *Model) scratch() *Scratch {
	if m.sc != nil {
		return m.sc
	}
	return &Scratch{}
}

// SetScratch attaches a reusable inference arena to the model. All
// subsequent inference calls carve their buffers — including returned
// posteriors and paths — from it; see the Scratch lifetime contract.
// A nil scratch restores per-call allocation.
func (m *Model) SetScratch(sc *Scratch) { m.sc = sc }
