package hmm

import "veritas/internal/mathx"

// Scratch is a reusable inference arena: every buffer the EHMM's hot
// path needs, carved from a handful of grow-only strided slabs. An
// armed Infer holds one N×S slab, the scaled forward variables α, plus
// O(S + K·N): the step into each chunk (A^Δn and its band), the K
// sampled paths, and the S-vectors of the forward pass (Viterbi score
// ping-pong, one log-emission row) and of the sampler (its weights).
// LastViterbiState uses the S-vectors alone. FitTransitions' Baum–Welch
// pass over T δ-intervals is the one caller of the interval chain's
// T×S slabs (log-emissions, rescaled emissions, α, β) and of the EM
// E-step's one S×S block; it reuses α's slab for its own α. A fleet
// worker allocates one Scratch and recycles it across its whole corpus
// slice: after the first (largest-shaped) session, per-session
// inference is allocation-flat.
//
// Lifetime contract: results produced through a Scratch — sampled
// paths, observation slices — point INTO the arena and are valid only
// until the next Infer or FitTransitions that uses the same Scratch.
// (FitTransitions' own result, the fitted matrix, and ViterbiPath's
// path are freshly allocated: nothing of them lives in the arena.)
// Callers that retain results across sessions (engine KeepAbductions,
// ad-hoc API use without a scratch) get freshly allocated buffers
// instead: every entry point treats a nil Scratch as "allocate a
// private one for this call", which the result then owns outright.
//
// A Scratch is not safe for concurrent use; give each goroutine its
// own. Reuse is safe across sessions of any shapes, and across the two
// chains, because every slab cell an algorithm reads is written earlier
// in the same call — nothing is carried over, so no state can bleed
// between sessions (see TestScratchNoCrossSessionBleed).
type Scratch struct {
	// α, N×S for Infer (the chunk chain's one position-shaped slab) or
	// T×S for FitTransitions' interval chain
	alpha []float64

	// the interval chain's other T×S slabs and T-vectors, read and
	// written by its α/β pass
	emitLog []float64 // log-emissions per interval
	emit    []float64 // per-interval max-rescaled emissions
	beta    []float64 // scaled backward variables
	shift   []float64 // per-interval emission rescale factors
	scale   []float64 // forward normalizers

	// the step into chunk n, A^Δn, and its band: recorded by Infer's
	// forward pass, read by every sample, cleared on return
	stepA    []*mathx.Matrix
	stepBand []mathx.Band
	gaps     []int // Δn between consecutive chunk starts (interval chain)

	// the EM E-step's one S × S block of pairwise products
	pair []float64

	// state-shaped vectors (S)
	cur, next []float64 // Viterbi score ping-pong
	weighted  []float64 // one chunk's log-emission row, or the backward pass's emit×beta products
	weights   []float64 // sampler's categorical weights
	emDen     []float64 // EM visit mass

	// sample slab (K × N ints, escapes into Inference)
	sampleSlab []int
	sampleHdr  [][]int

	// observation buffer (escapes into Abduction via ObservationsInto)
	obs []Observation

	// the worker's one generator: Infer's sampler reseeds it per call,
	// and the layers above borrow it through Rand
	rng *mathx.Rand
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

// passSlabs sizes what the interval chain's α/β pass reads and writes
// for t positions over s states.
func (sc *Scratch) passSlabs(t, s int) {
	sc.emitLog = growF(sc.emitLog, t*s)
	sc.emit = growF(sc.emit, t*s)
	sc.alpha = growF(sc.alpha, t*s)
	sc.beta = growF(sc.beta, t*s)
	sc.shift = growF(sc.shift, t)
	sc.scale = growF(sc.scale, t)
	sc.weighted = growF(sc.weighted, s)
}

// inferSlabs sizes what an n-chunk, s-state Infer keeps beside the
// forward pass's S-vectors (vectors) and the samples — α, the steps and
// the sampler's weights — and returns α.
func (sc *Scratch) inferSlabs(n, s int) []float64 {
	sc.alpha = growF(sc.alpha, n*s)
	if cap(sc.stepA) < n {
		sc.stepA, sc.stepBand = make([]*mathx.Matrix, n), make([]mathx.Band, n)
	}
	sc.stepA, sc.stepBand = sc.stepA[:n], sc.stepBand[:n]
	sc.weights = growF(sc.weights, s)
	return sc.alpha
}

// vectors sizes the forward pass's S-vectors — two Viterbi score
// vectors and one log-emission row — and returns them.
func (sc *Scratch) vectors(s int) (score, next, emit []float64) {
	sc.cur = growF(sc.cur, s)
	sc.next = growF(sc.next, s)
	sc.weighted = growF(sc.weighted, s)
	return sc.cur, sc.next, sc.weighted
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

// Rand returns the arena's one generator, made on first use. Whoever
// draws from it reseeds it first — Infer's sampler with its seed, a
// worker's deployed connection through netem.(*Conn).Reset — so no draw
// depends on who drew before, and a worker reseeds one 4.9 KB register
// per use instead of allocating one. Like the arena, it is not safe for
// concurrent use.
func (sc *Scratch) Rand() *mathx.Rand {
	if sc.rng == nil {
		sc.rng = mathx.NewRand(1)
	}
	return sc.rng
}

// reseeded returns the arena's generator reseeded with seed: seeded
// once, when it is made, or reseeded after.
func (sc *Scratch) reseeded(seed int64) *mathx.Rand {
	if sc.rng == nil {
		sc.rng = mathx.NewRand(seed)
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
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
// samples — from it; see the Scratch lifetime contract.
// A nil scratch restores per-call allocation.
func (m *Model) SetScratch(sc *Scratch) { m.sc = sc }
