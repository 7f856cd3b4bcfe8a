package abr

import "math"

// BOLA implements BOLA Basic (Spiteri et al., INFOCOM 2016) in the
// "BOLA-BASIC v1" form the Puffer project describes and the paper's
// appendix uses for Figure 13: each decision maximizes
//
//	(V·(v_q + γp) − Q) / S_q
//
// over qualities q, where Q is the buffer level in chunks, S_q the chunk
// size, v_q = ln(S_q / S_min) the utility, γp = bolaGammaP, and V is
// derived from the buffer capacity so the top quality is reachable just
// below the cap.
// The utilities depend on the clip alone, so they are read from the
// clip's table (video.Video.Utilities), built once per clip, not taken
// per decision. The zero value is the algorithm, as NewBOLA returns it.
type BOLA struct{}

// bolaGammaP is γp, trading utility against rebuffering avoidance: 5,
// the BOLA paper's recommended setting.
const bolaGammaP = 5

// NewBOLA returns BOLA Basic.
func NewBOLA() *BOLA { return &BOLA{} }

// Name implements Algorithm.
func (b *BOLA) Name() string { return "BOLA" }

// Choose implements Algorithm.
func (b *BOLA) Choose(ctx Context) int {
	v := ctx.Video
	nq := v.NumQualities()
	chunk := ctx.ChunkIndex
	minSize := v.Size(chunk, 0)
	if minSize <= 0 {
		return 0
	}
	// Utilities v_q = ln(S_q/S_min), v_0 = 0, read from the clip's
	// table: a decision takes no logarithm and allocates nothing.
	util := v.Utilities(chunk)
	bufMaxChunks := ctx.BufferCap / v.ChunkSeconds()
	vMax := util[nq-1]
	// V chosen so the score of the top quality crosses zero just below
	// the buffer cap (the standard BOLA derivation).
	V := math.Max(0.1, (bufMaxChunks-1)/(vMax+bolaGammaP))
	Q := ctx.BufferSeconds / v.ChunkSeconds()

	bestQ := 0
	bestScore := math.Inf(-1)
	anyPositive := false
	for q, vq := range util {
		size := v.Size(chunk, q)
		score := (V*(vq+bolaGammaP) - Q) / size
		if score > 0 {
			anyPositive = true
		}
		if score > bestScore {
			bestScore = score
			bestQ = q
		}
	}
	if !anyPositive {
		// Buffer is effectively full; BOLA idles at the top quality
		// rather than downloading a negative-score chunk. The player has
		// no idling hook, so stream the top rung (the standard BOLA-E
		// resolution).
		return nq - 1
	}
	return clampQuality(bestQ, ctx.Video)
}
