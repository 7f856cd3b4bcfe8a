package abr

import "math"

// BOLA implements BOLA Basic (Spiteri et al., INFOCOM 2016) in the
// "BOLA-BASIC v1" form the Puffer project describes and the paper's
// appendix uses for Figure 13: each decision maximizes
//
//	(V·(v_q + γp) − Q) / S_q
//
// over qualities q, where Q is the buffer level in chunks, S_q the chunk
// size, v_q = ln(S_q / S_min) the utility, and V, γp are derived from the
// buffer capacity so the top quality is reachable just below the cap.
type BOLA struct {
	// GammaP is the γp hyperparameter trading utility against
	// rebuffering avoidance (default 5, as in the BOLA paper's
	// recommended setting).
	GammaP float64
}

// NewBOLA returns BOLA Basic with the default γp.
func NewBOLA() *BOLA { return &BOLA{GammaP: 5} }

// Name implements Algorithm.
func (b *BOLA) Name() string { return "BOLA" }

// Choose implements Algorithm.
func (b *BOLA) Choose(ctx Context) int {
	gp := b.GammaP
	if gp == 0 {
		gp = 5
	}
	v := ctx.Video
	nq := v.NumQualities()
	chunk := ctx.ChunkIndex
	minSize := v.Size(chunk, 0)
	if minSize <= 0 {
		return 0
	}
	// Utilities v_q = ln(S_q/S_min), v_0 = 0, computed where used: a
	// decision allocates nothing.
	bufMaxChunks := ctx.BufferCap / v.ChunkSeconds()
	vMax := math.Log(v.Size(chunk, nq-1) / minSize)
	// V chosen so the score of the top quality crosses zero just below
	// the buffer cap (the standard BOLA derivation).
	V := math.Max(0.1, (bufMaxChunks-1)/(vMax+gp))
	Q := ctx.BufferSeconds / v.ChunkSeconds()

	bestQ := 0
	bestScore := math.Inf(-1)
	anyPositive := false
	for q := 0; q < nq; q++ {
		size := v.Size(chunk, q)
		score := (V*(math.Log(size/minSize)+gp) - Q) / size
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
