package abr

// Festive implements the rate-based core of FESTIVE (Jiang et al.,
// CoNEXT 2012), one of the ABR families the paper's related work
// covers: a harmonic-mean throughput target with gradual switching —
// step up one rung only after the target has held for a few chunks,
// step down immediately. It complements MPC/BBA/BOLA in the replay
// engine and gives what-if queries a fourth algorithm family. The zero
// value is the algorithm, as NewFestive returns it.
type Festive struct {
	current int
	upCount int
	started bool
}

// Festive's parameters: the target is festiveSafety times the harmonic
// mean of the last festiveWindow throughput observations, and a step up
// waits for festiveUpDelay consecutive chunks whose target exceeds the
// current rung. The 0.85 margin is FESTIVE's own. The window matches
// MPC's, and the up-delay is one fixed count where FESTIVE's grows with
// the rung: this reproduction's simplification of the original.
const (
	festiveSafety  = 0.85
	festiveWindow  = 5
	festiveUpDelay = 3
)

// NewFestive returns Festive.
func NewFestive() *Festive { return &Festive{} }

// Name implements Algorithm.
func (f *Festive) Name() string { return "Festive" }

// Choose implements Algorithm.
func (f *Festive) Choose(ctx Context) int {
	if !f.started {
		f.started = true
		f.current = 0
		return 0
	}
	pred := HarmonicMean(ctx.PastThroughputMbps, festiveWindow) * festiveSafety
	// The reference rung: highest bitrate sustainable at the predicted
	// throughput.
	ref := 0
	for q := 0; q < ctx.Video.NumQualities(); q++ {
		if ctx.Video.Quality(q).Mbps <= pred {
			ref = q
		}
	}
	switch {
	case ref > f.current:
		f.upCount++
		if f.upCount >= festiveUpDelay {
			f.current++
			f.upCount = 0
		}
	case ref < f.current:
		// Step down immediately, one rung per chunk (gradual switching).
		f.current--
		f.upCount = 0
	default:
		f.upCount = 0
	}
	f.current = clampQuality(f.current, ctx.Video)
	return f.current
}
