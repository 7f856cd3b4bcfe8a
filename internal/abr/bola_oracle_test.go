package abr

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"veritas/internal/video"
)

// bolaOracle is BOLA.Choose as it stood before the utilities came from
// the clip's table: a math.Log of every rung's size ratio, every
// decision, with γp read from the constant.
func bolaOracle(ctx Context) int {
	const gp = bolaGammaP
	v := ctx.Video
	nq := v.NumQualities()
	chunk := ctx.ChunkIndex
	minSize := v.Size(chunk, 0)
	if minSize <= 0 {
		return 0
	}
	bufMaxChunks := ctx.BufferCap / v.ChunkSeconds()
	vMax := math.Log(v.Size(chunk, nq-1) / minSize)
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
		return nq - 1
	}
	return clampQuality(bestQ, ctx.Video)
}

// bolaClips returns fresh clips over both ladders with and without VBR,
// each followed by two Prefix views of it; no table is built yet.
func bolaClips() []*video.Video {
	var clips []*video.Video
	for _, ladder := range [][]video.Quality{video.DefaultLadder(), video.HigherLadder()} {
		for _, vbr := range []float64{0, 0.15} {
			cfg := video.DefaultConfig(3)
			cfg.NumChunks, cfg.Ladder, cfg.VBRStd = 120, ladder, vbr
			full := video.MustSynthesize(cfg)
			clips = append(clips, full.Prefix(40), full, full.Prefix(90).Prefix(7))
		}
	}
	return clips
}

// randomBOLAContext draws a decision on v: chunk 0, the last chunk or
// one between, buffers from empty to past the cap.
func randomBOLAContext(rng *rand.Rand, v *video.Video) Context {
	chunk := rng.Intn(v.NumChunks())
	switch rng.Intn(4) {
	case 0:
		chunk = 0
	case 1:
		chunk = v.NumChunks() - 1
	}
	bufCap := []float64{2, 5, 12, 30, 60}[rng.Intn(5)]
	return Context{
		ChunkIndex:    chunk,
		BufferSeconds: rng.Float64() * bufCap * 1.1,
		BufferCap:     bufCap,
		LastQuality:   rng.Intn(v.NumQualities()+1) - 1,
		Video:         v,
	}
}

// TestBOLAMatchesOracle: reading the clip's utility table chooses what
// taking the logarithms per decision chose, on every clip and view.
func TestBOLAMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i, v := range bolaClips() {
		b := NewBOLA()
		for k := 0; k < 8000; k++ {
			ctx := randomBOLAContext(rng, v)
			if got, want := b.Choose(ctx), bolaOracle(ctx); got != want {
				t.Fatalf("clip %d, chunk %d of %d, buffer %v of %v: chose %d, oracle %d",
					i, ctx.ChunkIndex, v.NumChunks(), ctx.BufferSeconds, ctx.BufferCap, got, want)
			}
		}
	}
}

// TestBOLAConcurrentFirstUse has goroutines make their first decisions
// on one fresh clip and its views at once (run with -race): the table is
// built once between them, and every choice is the oracle's.
func TestBOLAConcurrentFirstUse(t *testing.T) {
	clips := bolaClips()[:3] // one clip's two views and the clip itself
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			b := NewBOLA()
			for k := 0; k < 300; k++ {
				ctx := randomBOLAContext(rng, clips[(g+k)%len(clips)])
				if got, want := b.Choose(ctx), bolaOracle(ctx); got != want {
					t.Errorf("goroutine %d: chunk %d chose %d, oracle %d", g, ctx.ChunkIndex, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBOLAChoose times BOLA decisions as BenchmarkMPCChoose times
// MPC's: one op is a sweep of 256 over chunk indices and buffer levels.
func BenchmarkBOLAChoose(b *testing.B) {
	v := video.MustSynthesize(video.DefaultConfig(1))
	bola := NewBOLA()
	ctx := Context{BufferCap: 30, LastQuality: 3, Video: v}
	bola.Choose(ctx) // warm: the clip's table is built on first use
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 256; k++ {
			ctx.ChunkIndex = k
			ctx.BufferSeconds = float64(k%61) * 0.5
			sinkQuality = bola.Choose(ctx)
		}
	}
}
