package abr

import (
	"math"

	"veritas/internal/video"
)

// MPC is the model-predictive-control algorithm of Yin et al. (the
// paper's default deployed ABR). At each step it predicts throughput
// with a robust (error-discounted) harmonic mean, then searches quality
// sequences over a short horizon, simulating buffer evolution, and
// picks the first quality of the sequence maximizing a linear QoE:
// Σ bitrate − RebufPenalty·rebuffer − SmoothPenalty·|Δbitrate|. Among
// equally good sequences the lexicographically first wins. The search
// is an exact branch and bound (see mpcPlan); both penalties must be
// non-negative.
type MPC struct {
	// Horizon is the lookahead depth in chunks (default 4).
	Horizon int
	// Window is the harmonic-mean window (default 5).
	Window int
	// RebufPenalty is QoE lost per second of rebuffering, in Mbps-equivalent
	// units (default 8).
	RebufPenalty float64
	// SmoothPenalty scales the |Δbitrate| switching term. Unlike the
	// fields above it has no zero-value default: 0 disables smoothing,
	// and only NewMPC sets the usual 1.
	SmoothPenalty float64
	// Robust enables the RobustMPC error discount (default true via NewMPC).
	Robust bool

	maxErr float64 // running max relative prediction error (robust mode)
	plan   mpcPlan // planner tables and scratch, reused across Choose calls
}

// NewMPC returns RobustMPC with the defaults used across the
// reproduction's experiments.
func NewMPC() *MPC {
	return &MPC{Horizon: 4, Window: 5, RebufPenalty: 8, SmoothPenalty: 1, Robust: true}
}

// Name implements Algorithm.
func (m *MPC) Name() string { return "MPC" }

func (m *MPC) horizon() int {
	if m.Horizon <= 0 {
		return 4
	}
	return m.Horizon
}

func (m *MPC) window() int {
	if m.Window <= 0 {
		return 5
	}
	return m.Window
}

func (m *MPC) rebufPenalty() float64 {
	if m.RebufPenalty == 0 {
		return 8
	}
	return m.RebufPenalty
}

// predict returns the robust throughput estimate in Mbps.
func (m *MPC) predict(past []float64) float64 {
	hm := HarmonicMean(past, m.window())
	if hm <= 0 {
		return 0
	}
	if !m.Robust {
		return hm
	}
	// RobustMPC: track the max relative error of the harmonic-mean
	// predictor on past observations and discount by it.
	if len(past) >= 2 {
		prev := HarmonicMean(past[:len(past)-1], m.window())
		actual := past[len(past)-1]
		if prev > 0 && actual > 0 {
			err := math.Abs(prev-actual) / actual
			if err > m.maxErr {
				m.maxErr = err
			}
			// Decay so one outlier does not depress the session forever.
			m.maxErr *= 0.99
		}
	}
	return hm / (1 + m.maxErr)
}

// Choose implements Algorithm.
func (m *MPC) Choose(ctx Context) int {
	v := ctx.Video
	pred := m.predict(ctx.PastThroughputMbps)
	if !(pred > 0) {
		// No observations yet: start from the bottom like the deployed
		// systems the paper logs.
		return 0
	}
	h := min(m.horizon(), v.NumChunks()-ctx.ChunkIndex)
	if h <= 0 {
		return 0
	}
	p := &m.plan
	if p.video != v || p.smooth != m.SmoothPenalty {
		p.setLadder(v, m.SmoothPenalty)
	}
	nq, hn := p.nq, h*p.nq
	if n := 4*hn + nq + h; len(p.buf) < n {
		p.buf = make([]float64, n)
	}
	p.dl, p.step, p.key = p.buf[:hn], p.buf[hn:2*hn], p.buf[2*hn:3*hn]
	p.upper, p.bmax = p.buf[3*hn:4*hn+nq], p.buf[4*hn+nq:4*hn+nq+h]
	p.h, p.rebufPen, p.chunkSec, p.bufCap = h, m.rebufPenalty(), v.ChunkSeconds(), ctx.BufferCap

	// Forward pass: the download-time table, and bmax[d], the most any
	// path can hold before chunk d (every earlier one at its fastest).
	bmax := ctx.BufferSeconds
	for d := 0; d < h; d++ {
		p.bmax[d] = bmax
		fastest := math.Inf(1)
		for q := 0; q < nq; q++ {
			t := v.Size(ctx.ChunkIndex+d, q) * 8 / 1e6 / pred // predicted download seconds
			p.dl[d*nq+q] = t
			if t < fastest {
				fastest = t
			}
		}
		bmax = p.after(bmax, fastest)
	}
	// Backward pass: upper[d][last] bounds the summed steps d..h-1 of
	// any path whose chunk d-1 had quality last: step d scored holding b,
	// the most buffer such a path can, the deeper ones by upper[d+1].
	clear(p.upper[hn:])
	for d := h - 1; d >= 1; d-- {
		dl, next := p.dl[d*nq:(d+1)*nq], p.upper[(d+1)*nq:(d+2)*nq]
		for last := 0; last < nq; last++ {
			b := p.after(p.bmax[d-1], p.dl[(d-1)*nq+last])
			pen, u := p.pen[(last+1)*nq:(last+2)*nq], math.Inf(-1)
			for q, t := range dl {
				r := p.rate[q]
				if t > b {
					r -= p.rebufPen * (t - b)
				}
				if r += next[q] - pen[q]; r > u {
					u = r
				}
			}
			p.upper[d*nq+last] = u
		}
	}

	p.best, p.floor, p.bestQ = math.Inf(-1), math.Inf(-1), 0
	p.search(0, ctx.BufferSeconds, max(ctx.LastQuality, -1), 0)
	return p.bestQ
}

// mpcPlan is the planner an MPC instance owns: an exact depth-first
// branch and bound over quality sequences. Leaf scores are accumulated
// as an exhaustive search would (score + step, depth first), so the
// winner is the same: the first quality of the lexicographically first
// maximal sequence.
//
// A subtree is cut when score + step + upper < floor. The relaxed
// buffers are never below a path's true buffer, rounding included (the
// buffer update is a chain of monotone rounded operations), and a step
// never loses by a fuller buffer, so in real arithmetic that sum is at
// least every leaf score below the child. Rounding: every intermediate
// value on either side of a leaf that could matter (score ≥ best) lies
// within |best| + 2·h·maxRate, and each of the fewer than 10·h rounded
// operations (a fused multiply-add counts for two) errs by at most
// 2⁻⁵³ of that. floor = best − 1e-9·(|best| + h·maxRate) allows a
// hundred thousand times more at any searchable horizon, so no leaf
// that ties or beats the incumbent is ever cut.
type mpcPlan struct {
	video  *video.Video // ladder that rate and pen were built for
	smooth float64      // SmoothPenalty that pen was built for
	rate   []float64    // [q] ladder bitrate, Mbps
	pen    []float64    // [(last+1)*nq+q] smooth·|rate_q − rate_last|; row 0 (no previous chunk) is zero

	h, nq                      int
	rebufPen, chunkSec, bufCap float64
	buf                        []float64 // backing store of the tables below
	dl                         []float64 // [d*nq+q] predicted download seconds
	bmax                       []float64 // [d] upper bound on the buffer before chunk d
	upper                      []float64 // [d*nq+last], rows 1..h; row h is zero
	step, key                  []float64 // [d*nq+q] node scratch: step score, step + upper
	first, bestQ               int       // depth-0 quality of the path being explored, and of the incumbent
	best, floor                float64   // incumbent score, and the bound below which a subtree is cut
}

// setLadder rebuilds the per-ladder tables.
func (p *mpcPlan) setLadder(v *video.Video, smooth float64) {
	nq := v.NumQualities()
	p.video, p.smooth, p.nq = v, smooth, nq
	p.rate, p.pen = make([]float64, nq), make([]float64, (nq+1)*nq)
	for q := range p.rate {
		p.rate[q] = v.Quality(q).Mbps
	}
	for last, lr := range p.rate {
		for q, r := range p.rate {
			p.pen[(last+1)*nq+q] = smooth * math.Abs(r-lr)
		}
	}
}

// search expands the node reached at depth d with the given buffer,
// previous quality and accumulated score.
func (p *mpcPlan) search(d int, buffer float64, last int, score float64) {
	if d == p.h {
		if score > p.best || (score == p.best && p.first < p.bestQ) {
			p.best, p.bestQ = score, p.first
			p.floor = score - 1e-9*(math.Abs(score)+float64(p.h)*p.rate[p.nq-1])
		}
		return
	}
	nq, o := p.nq, d*p.nq
	dl, pen, upper := p.dl[o:o+nq], p.pen[(last+1)*nq:(last+2)*nq], p.upper[o+nq:o+2*nq]
	step, key, bq := p.step[o:o+nq], p.key[o:o+nq], 0
	for q, t := range dl {
		s := p.rate[q]
		if t > buffer {
			s -= p.rebufPen * (t - buffer)
		}
		s -= pen[q]
		step[q], key[q] = s, s+upper[q]
		if key[q] > key[bq] {
			bq = q
		}
	}
	// The most promising child first, so the first dive leaves a strong
	// incumbent; then the rest in ladder order.
	for i := -1; i < nq; i++ {
		q := i
		if i < 0 {
			q = bq
		}
		if i == bq || score+key[q] < p.floor {
			continue
		}
		if d == 0 {
			p.first = q
		}
		p.search(d+1, p.after(buffer, dl[q]), q, score+step[q])
	}
}

// after returns the buffer once a chunk that takes dl seconds has
// arrived in a buffer of the given level.
func (p *mpcPlan) after(buffer, dl float64) float64 {
	b := p.chunkSec
	if room := buffer - dl; room > 0 {
		b += room
	}
	return min(b, p.bufCap)
}
