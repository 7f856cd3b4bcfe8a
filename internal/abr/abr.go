// Package abr implements the adaptive-bitrate algorithms the paper's
// experiments deploy and compare: MPC (the default deployed algorithm),
// BBA and BOLA Basic (the counterfactual alternatives), plus Random
// (used to build the interventional test set of Figure 12) and Fixed.
//
// Algorithm instances may carry per-session state (Random's RNG, MPC's
// error history); create one instance per session and do not share
// across goroutines.
package abr

import (
	"fmt"

	"veritas/internal/video"
)

// Context is everything an ABR algorithm may observe when choosing the
// quality of the next chunk. All observations are from the client's
// viewpoint — network ground truth is never visible here, which is the
// root of the causal confounding the paper studies.
type Context struct {
	// ChunkIndex is the index of the chunk about to be requested.
	ChunkIndex int
	// BufferSeconds is the current playback buffer level.
	BufferSeconds float64
	// BufferCap is the maximum buffer the player may hold.
	BufferCap float64
	// LastQuality is the quality of the previous chunk, or -1 for the
	// first chunk.
	LastQuality int
	// PastThroughputMbps holds the observed throughput of each finished
	// chunk download, oldest first.
	PastThroughputMbps []float64
	// Video exposes chunk sizes and qualities.
	Video *video.Video
}

// Algorithm chooses the next chunk's quality index.
type Algorithm interface {
	// Name identifies the algorithm in logs and reports.
	Name() string
	// Choose returns a quality index in [0, ctx.Video.NumQualities()).
	Choose(ctx Context) int
}

// clampQuality keeps q valid for the video in ctx.
func clampQuality(q int, v *video.Video) int {
	if q < 0 {
		return 0
	}
	if q >= v.NumQualities() {
		return v.NumQualities() - 1
	}
	return q
}

// HarmonicMean returns the harmonic mean of the last k samples of xs
// (all of xs if it has fewer). Zero/negative samples are skipped; the
// result is 0 when no usable samples exist.
func HarmonicMean(xs []float64, k int) float64 {
	if k <= 0 || len(xs) == 0 {
		return 0
	}
	if len(xs) > k {
		xs = xs[len(xs)-k:]
	}
	var inv float64
	var n int
	for _, x := range xs {
		if x > 0 {
			inv += 1 / x
			n++
		}
	}
	if n == 0 || inv == 0 {
		return 0
	}
	return float64(n) / inv
}

// Fixed always picks the same quality. Useful as a control and in unit
// tests.
type Fixed struct{ Quality int }

// Name implements Algorithm.
func (f *Fixed) Name() string { return fmt.Sprintf("Fixed(%d)", f.Quality) }

// Choose implements Algorithm.
func (f *Fixed) Choose(ctx Context) int { return clampQuality(f.Quality, ctx.Video) }
