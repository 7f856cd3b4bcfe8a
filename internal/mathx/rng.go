package mathx

// SampleCategorical draws an index from the (not necessarily normalized)
// non-negative weight vector w using rng. If all weights are zero it
// falls back to a uniform draw so callers never receive an invalid index.
func SampleCategorical(rng *Rand, w []float64) int {
	if len(w) == 0 {
		panic("mathx: SampleCategorical on empty weights")
	}
	var total float64
	for _, v := range w {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return rng.Intn(len(w))
	}
	u := rng.Float64() * total
	var acc float64
	for i, v := range w {
		if v <= 0 {
			continue
		}
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}
