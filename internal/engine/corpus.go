package engine

import (
	"fmt"
	"math"
	"runtime"

	"veritas/internal/abduction"
	"veritas/internal/abr"
	"veritas/internal/mathx"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// Scenarios returns the corpus scenario names BuildCorpus accepts: the
// generator regimes from internal/trace plus the square-wave process.
func Scenarios() []string {
	return append(trace.Regimes(), "square")
}

// DefaultSessionsPer is the number of sessions a synthetic corpus draws
// per scenario when CorpusConfig.SessionsPer is left zero.
const DefaultSessionsPer = 8

// DefaultABR returns a fresh instance of the deployed (Setting A)
// algorithm a session streams with when none is named: the paper's
// RobustMPC.
func DefaultABR() abr.Algorithm { return abr.NewMPC() }

// CorpusConfig describes a scenario-diverse synthetic corpus: for each
// named scenario, SessionsPer ground-truth traces with consecutive
// seeds, all streamed by the same deployed design.
type CorpusConfig struct {
	// Scenarios is a subset of Scenarios(); empty means all of them.
	Scenarios []string
	// SessionsPer is the number of sessions per scenario (default
	// DefaultSessionsPer).
	SessionsPer int
	// NumChunks truncates the synthetic video (0 means the full clip).
	NumChunks int
	// BufferCap is the deployed buffer size in seconds (default
	// player.DefaultBufferCap).
	BufferCap float64
	// NewABR is the deployed algorithm factory (default DefaultABR).
	NewABR func() abr.Algorithm
	// Seed derives every trace, jitter and abduction seed in the corpus.
	Seed int64
	// Workers is how many goroutines build the specs; 0 means
	// GOMAXPROCS. It shapes only how fast the corpus is built, never
	// what it holds.
	Workers int
}

// squareBands are the square-wave variants the "square" scenario cycles
// through: lo/hi plateaus in Mbps and the half-period in seconds.
var squareBands = []struct{ lo, hi, halfPeriod float64 }{
	{2, 6, 60},
	{3, 8, 30},
	{4, 5, 90},
	{1, 7, 45},
}

// video is the corpus clip: the default synthetic video truncated to
// NumChunks — the process's one default clip or a prefix view of it, so
// BuildCorpus and BuildMatrix synthesise nothing and Setting A and every
// Setting B stream the same chunks. Only a clip longer than the default
// is synthesised, per call.
func (cfg CorpusConfig) video() *video.Video {
	full := video.Default()
	switch {
	case cfg.NumChunks <= 0:
		return full
	case cfg.NumChunks <= full.NumChunks():
		return full.Prefix(cfg.NumChunks)
	}
	vcfg := video.DefaultConfig(1)
	vcfg.NumChunks = cfg.NumChunks
	return video.MustSynthesize(vcfg)
}

// BuildCorpus materializes the corpus as engine session specs. The
// result is fully deterministic in the config: each spec depends only on
// its own index, so Workers goroutines fill the slots in any order and
// the specs — and the error, the lowest-index one — are those a serial
// build gives. Each goroutine keeps one generator and reseeds it for
// every trace it draws (trace.GenerateWith).
func BuildCorpus(cfg CorpusConfig) ([]SessionSpec, error) {
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = Scenarios()
	}
	per := cfg.SessionsPer
	if per <= 0 {
		per = DefaultSessionsPer
	}
	buf := cfg.BufferCap
	if buf == 0 {
		buf = player.DefaultBufferCap
	}
	newABR := cfg.NewABR
	if newABR == nil {
		newABR = DefaultABR
	}
	vid := cfg.video()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	corpus := make([]SessionSpec, len(scenarios)*per)
	rngs := make([]*mathx.Rand, workers) // one per goroutine, made on its first trace
	build := func(w, k int) error {
		si, i := k/per, k%per
		name := scenarios[si]
		seed := cfg.Seed + int64(si)*10_000 + int64(i)
		var gt *trace.Trace
		var err error
		switch name {
		case "square":
			b := squareBands[i%len(squareBands)]
			gt, err = trace.SquareWave(b.lo, b.hi, b.halfPeriod, 720)
		default:
			var gcfg trace.GenConfig
			gcfg, err = trace.RegimeConfig(name, seed)
			if err == nil {
				if rngs[w] == nil {
					rngs[w] = mathx.NewRand(seed)
				}
				gt, err = trace.GenerateWith(rngs[w], gcfg)
			}
		}
		if err != nil {
			return fmt.Errorf("engine: corpus scenario %q: %w", name, err)
		}
		net := netem.DefaultConfig()
		net.Seed = seed
		corpus[k] = SessionSpec{
			ID:        fmt.Sprintf("%s-%03d", name, i),
			Scenario:  name,
			Trace:     gt,
			Video:     vid,
			NewABR:    newABR,
			BufferCap: buf,
			Net:       &net,
		}
		return nil
	}
	if err := forEachIndex(len(corpus), workers, build); err != nil {
		return nil, err
	}
	return corpus, nil
}

// ABRs returns the algorithm names BuildMatrix accepts.
func ABRs() []string { return []string{"mpc", "bba", "bola", "festive"} }

// NewABR returns a fresh instance of the named algorithm (see ABRs) —
// the module's one name → ABR registry.
func NewABR(name string) (abr.Algorithm, error) {
	switch name {
	case "mpc":
		return abr.NewMPC(), nil
	case "bba":
		return abr.NewBBA(), nil
	case "bola":
		return abr.NewBOLA(), nil
	case "festive":
		return abr.NewFestive(), nil
	}
	return nil, fmt.Errorf("engine: unknown ABR %q (have %v)", name, ABRs())
}

// BuildMatrix returns the ABR × buffer-size what-if matrix for a
// corpus: one arm per (algorithm, buffer) pair, named "<abr>-<buf>s",
// all streaming the corpus video over the default emulated path.
func BuildMatrix(cfg CorpusConfig, abrs []string, buffers []float64) ([]Arm, error) {
	if len(abrs) == 0 || len(buffers) == 0 {
		return nil, fmt.Errorf("engine: matrix needs at least one ABR and one buffer size")
	}
	vid := cfg.video()
	var arms []Arm
	for _, name := range abrs {
		if _, err := NewABR(name); err != nil {
			return nil, err
		}
		newABR := func() abr.Algorithm {
			alg, _ := NewABR(name) // validated above
			return alg
		}
		for _, buf := range buffers {
			if !(buf > 0) || math.IsInf(buf, 1) {
				return nil, fmt.Errorf("engine: matrix buffer %v is not a positive finite number of seconds", buf)
			}
			arms = append(arms, Arm{
				Name: fmt.Sprintf("%s-%gs", name, buf),
				Setting: abduction.Setting{
					Video:     vid,
					NewABR:    newABR,
					BufferCap: buf,
					Net:       netem.DefaultConfig(),
				},
			})
		}
	}
	return arms, nil
}
