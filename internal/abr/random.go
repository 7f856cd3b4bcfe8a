package abr

import "veritas/internal/mathx"

// Random picks qualities uniformly at random. The paper uses random
// bitrate selection to build the interventional test set of Figure 12:
// chunk-size sequences a deployed ABR would never produce, exactly where
// associational predictors like Fugu are biased.
type Random struct {
	rng *mathx.Rand
}

// NewRandom returns a seeded Random algorithm.
func NewRandom(seed int64) *Random {
	return &Random{rng: mathx.NewRand(seed)}
}

// Name implements Algorithm.
func (r *Random) Name() string { return "Random" }

// Choose implements Algorithm.
func (r *Random) Choose(ctx Context) int {
	return r.rng.Intn(ctx.Video.NumQualities())
}
