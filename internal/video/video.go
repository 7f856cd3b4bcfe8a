// Package video provides the synthetic variable-bitrate video that
// sessions stream: per-chunk, per-quality encoded sizes and SSIM values.
// It stands in for the paper's pre-recorded 10-minute clip (bitrates
// 0.1–4 Mbps, average SSIM 0.908 for the lowest quality and 0.986 for
// the highest).
package video

import (
	"fmt"
	"math"
	"sync"

	"veritas/internal/mathx"
)

// Quality is one rung of the encoding ladder.
type Quality struct {
	// Name is a human label such as "480p".
	Name string
	// Mbps is the nominal encoding bitrate.
	Mbps float64
	// SSIM is the mean SSIM index of chunks encoded at this quality.
	SSIM float64
}

// Config describes a synthetic video.
type Config struct {
	ChunkSeconds float64   // playback duration per chunk
	NumChunks    int       // number of chunks
	Ladder       []Quality // encoding ladder, ascending bitrate
	// VBRStd is the relative standard deviation of per-chunk size
	// variation around the nominal bitrate (variable-bitrate encoding).
	VBRStd float64
	// SSIMStd is the absolute standard deviation of per-chunk SSIM
	// variation around the ladder value.
	SSIMStd float64
	Seed    int64
}

// DefaultLadder is the reproduction's stand-in for the paper's ladder:
// bitrates spanning 0.1–4 Mbps with SSIM anchored at 0.908 (lowest
// average) and 0.986 (highest average).
func DefaultLadder() []Quality {
	return []Quality{
		{Name: "144p", Mbps: 0.1, SSIM: 0.908},
		{Name: "240p", Mbps: 0.25, SSIM: 0.931},
		{Name: "360p", Mbps: 0.5, SSIM: 0.950},
		{Name: "480p", Mbps: 1.0, SSIM: 0.964},
		{Name: "720p", Mbps: 1.8, SSIM: 0.974},
		{Name: "900p", Mbps: 2.7, SSIM: 0.980},
		{Name: "1080p", Mbps: 3.5, SSIM: 0.984},
		{Name: "1440p", Mbps: 4.0, SSIM: 0.986},
	}
}

// HigherLadder is the "higher set of video qualities" counterfactual of
// Figure 11: the low rungs are dropped entirely and rungs above the
// original maximum are added, as when a publisher enables higher
// resolutions. The raised floor is what separates the estimators: a
// conservative bandwidth estimate now predicts rebuffering that the
// true network would not produce.
func HigherLadder() []Quality {
	return []Quality{
		{Name: "900p", Mbps: 2.7, SSIM: 0.980},
		{Name: "1080p", Mbps: 3.5, SSIM: 0.984},
		{Name: "1440p", Mbps: 4.5, SSIM: 0.988},
		{Name: "2160p", Mbps: 6.0, SSIM: 0.992},
		{Name: "4320p", Mbps: 8.0, SSIM: 0.994},
	}
}

// DefaultConfig is the 10-minute clip used across the experiments:
// 2-second chunks, default ladder, mild VBR variation.
func DefaultConfig(seed int64) Config {
	return Config{
		ChunkSeconds: 2.0,
		NumChunks:    300, // 10 minutes
		Ladder:       DefaultLadder(),
		VBRStd:       0.15,
		SSIMStd:      0.004,
		Seed:         seed,
	}
}

// Validate reports the first problem with the config, if any.
func (c Config) Validate() error {
	switch {
	case c.ChunkSeconds <= 0:
		return fmt.Errorf("video: ChunkSeconds %v <= 0", c.ChunkSeconds)
	case c.NumChunks <= 0:
		return fmt.Errorf("video: NumChunks %d <= 0", c.NumChunks)
	case len(c.Ladder) == 0:
		return fmt.Errorf("video: empty quality ladder")
	case c.VBRStd < 0 || c.VBRStd > 0.9:
		return fmt.Errorf("video: VBRStd %v outside [0, 0.9]", c.VBRStd)
	case c.SSIMStd < 0:
		return fmt.Errorf("video: SSIMStd %v < 0", c.SSIMStd)
	}
	for i, q := range c.Ladder {
		if q.Mbps <= 0 {
			return fmt.Errorf("video: ladder[%d] bitrate %v <= 0", i, q.Mbps)
		}
		if q.SSIM <= 0 || q.SSIM > 1 {
			return fmt.Errorf("video: ladder[%d] SSIM %v outside (0, 1]", i, q.SSIM)
		}
		if i > 0 && q.Mbps <= c.Ladder[i-1].Mbps {
			return fmt.Errorf("video: ladder bitrates must be ascending (index %d)", i)
		}
	}
	return nil
}

// Video is an encoded clip: immutable per-chunk sizes and SSIMs for every
// quality, and a table of BOLA's utilities ln(S_q/S_0) built from the
// sizes on first use (see Utilities). A Prefix view keeps a pointer to
// the synthesised clip it was cut from and reads that clip's table, so
// the table is built once per synthesised clip, ≈ 19 KB for the default
// one.
type Video struct {
	cfg   Config
	sizes [][]float64 // [chunk][quality] bytes
	ssims [][]float64 // [chunk][quality]
	// full is the synthesised clip a Prefix view shares rows and
	// utilities with; nil on a synthesised clip, which owns them.
	full     *Video
	utilOnce sync.Once
	util     []float64 // [chunk*qualities + quality], set by utilOnce
}

// Synthesize builds a video from the config, deterministically from the
// seed. Per-chunk sizes vary log-normally around the nominal bitrate
// (VBR) with the variation correlated across qualities within a chunk,
// mimicking scene complexity.
func Synthesize(cfg Config) (*Video, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := &Video{
		cfg:   cfg,
		sizes: make([][]float64, cfg.NumChunks),
		ssims: make([][]float64, cfg.NumChunks),
	}
	rng := mathx.NewRand(cfg.Seed * 1_000_003)
	for n := 0; n < cfg.NumChunks; n++ {
		v.sizes[n] = make([]float64, len(cfg.Ladder))
		v.ssims[n] = make([]float64, len(cfg.Ladder))
		// Per-chunk sequence derived from (seed, chunk index) so the
		// same seed yields the same scene complexity regardless of the
		// ladder — WithLadder relies on this to model re-encoding the
		// same content. Reseeding restarts the generator exactly as a
		// fresh one of that seed would start.
		if n > 0 {
			rng.Seed(cfg.Seed*1_000_003 + int64(n))
		}
		// One complexity draw per chunk, shared across qualities.
		complexity := math.Exp(rng.NormFloat64()*cfg.VBRStd - cfg.VBRStd*cfg.VBRStd/2)
		for q, rung := range cfg.Ladder {
			nominal := rung.Mbps * 1e6 / 8 * cfg.ChunkSeconds
			// Small independent residual per rung on top of the shared
			// complexity factor.
			resid := 1 + rng.NormFloat64()*cfg.VBRStd*0.2
			size := nominal * complexity * math.Max(0.3, resid)
			v.sizes[n][q] = math.Max(200, size)
			ss := rung.SSIM + rng.NormFloat64()*cfg.SSIMStd
			v.ssims[n][q] = math.Min(1, math.Max(0, ss))
		}
	}
	return v, nil
}

// MustSynthesize is Synthesize for known-good configs (panics on error).
func MustSynthesize(cfg Config) *Video {
	v, err := Synthesize(cfg)
	if err != nil {
		panic(err)
	}
	return v
}

// Default is the clip every layer falls back to when a caller names no
// video: DefaultConfig(1), synthesised once per process. A Video is
// immutable, so every session may share the one.
var Default = sync.OnceValue(func() *Video { return MustSynthesize(DefaultConfig(1)) })

// Prefix returns the clip's first n chunks, 1 <= n, as a clip of its
// own: a view sharing the rows. Chunk i's size and SSIM depend only on
// the seed and i, so it equals the clip synthesised from the same config
// with NumChunks n. n at or past NumChunks returns v itself.
func (v *Video) Prefix(n int) *Video {
	if n < 1 {
		panic(fmt.Sprintf("video: Prefix(%d) of a %d-chunk clip", n, v.cfg.NumChunks))
	}
	if n >= v.cfg.NumChunks {
		return v
	}
	p := &Video{cfg: v.cfg, sizes: v.sizes[:n:n], ssims: v.ssims[:n:n], full: v.owner()}
	p.cfg.NumChunks = n
	return p
}

// owner returns the synthesised clip whose rows v reads.
func (v *Video) owner() *Video {
	if v.full != nil {
		return v.full
	}
	return v
}

// NumChunks returns the chunk count.
func (v *Video) NumChunks() int { return v.cfg.NumChunks }

// NumQualities returns the ladder height.
func (v *Video) NumQualities() int { return len(v.cfg.Ladder) }

// ChunkSeconds returns playback seconds per chunk.
func (v *Video) ChunkSeconds() float64 { return v.cfg.ChunkSeconds }

// Ladder returns a copy of the quality ladder.
func (v *Video) Ladder() []Quality {
	out := make([]Quality, len(v.cfg.Ladder))
	copy(out, v.cfg.Ladder)
	return out
}

// Quality returns rung q of the ladder.
func (v *Video) Quality(q int) Quality { return v.cfg.Ladder[q] }

// Size returns the encoded size in bytes of chunk n at quality q.
func (v *Video) Size(n, q int) float64 { return v.sizes[n][q] }

// Utilities returns chunk n's utility per quality, ln(S_q/S_0): 0 at
// quality 0, the ladder's height long. The table behind it is built
// once per synthesised clip, on the first call from any goroutine, and
// the returned row must not be modified.
func (v *Video) Utilities(n int) []float64 {
	o := v.owner()
	o.utilOnce.Do(o.buildUtilities)
	nq, end := len(v.cfg.Ladder), len(v.sizes)*len(v.cfg.Ladder)
	u := o.util[:end:end] // a view's chunks only, as Size allows
	return u[n*nq : (n+1)*nq : (n+1)*nq]
}

func (v *Video) buildUtilities() {
	nq := len(v.cfg.Ladder)
	v.util = make([]float64, len(v.sizes)*nq)
	for n, row := range v.sizes {
		for q, size := range row {
			v.util[n*nq+q] = math.Log(size / row[0])
		}
	}
}

// SSIM returns the SSIM of chunk n at quality q.
func (v *Video) SSIM(n, q int) float64 { return v.ssims[n][q] }

// Bitrate returns the actual encoded bitrate in Mbps of chunk n at
// quality q (size over chunk duration).
func (v *Video) Bitrate(n, q int) float64 {
	return v.sizes[n][q] * 8 / 1e6 / v.cfg.ChunkSeconds
}
