package video

import (
	"math"
	"sync"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.ChunkSeconds = 0 },
		func(c *Config) { c.NumChunks = 0 },
		func(c *Config) { c.Ladder = nil },
		func(c *Config) { c.VBRStd = -1 },
		func(c *Config) { c.SSIMStd = -1 },
		func(c *Config) { c.Ladder[2].Mbps = c.Ladder[1].Mbps }, // not ascending
		func(c *Config) { c.Ladder[0].SSIM = 1.5 },
		func(c *Config) { c.Ladder[0].Mbps = -1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig(1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := MustSynthesize(DefaultConfig(5))
	b := MustSynthesize(DefaultConfig(5))
	for n := 0; n < a.NumChunks(); n += 37 {
		for q := 0; q < a.NumQualities(); q++ {
			if a.Size(n, q) != b.Size(n, q) || a.SSIM(n, q) != b.SSIM(n, q) {
				t.Fatalf("same seed differs at chunk %d quality %d", n, q)
			}
		}
	}
}

func TestSizesOrderedByQuality(t *testing.T) {
	// VBR noise is shared across rungs within a chunk, so sizes should
	// almost always ascend with quality. Allow rare inversions from the
	// small independent residual, but only a few.
	v := MustSynthesize(DefaultConfig(2))
	inversions := 0
	for n := 0; n < v.NumChunks(); n++ {
		for q := 1; q < v.NumQualities(); q++ {
			if v.Size(n, q) < v.Size(n, q-1) {
				inversions++
			}
		}
	}
	total := v.NumChunks() * (v.NumQualities() - 1)
	if frac := float64(inversions) / float64(total); frac > 0.02 {
		t.Errorf("%.1f%% size inversions across qualities, want < 2%%", frac*100)
	}
}

func TestMeanBitratesNearNominal(t *testing.T) {
	v := MustSynthesize(DefaultConfig(3))
	for q, rung := range v.Ladder() {
		var sum float64
		for n := 0; n < v.NumChunks(); n++ {
			sum += v.Bitrate(n, q)
		}
		mean := sum / float64(v.NumChunks())
		if math.Abs(mean-rung.Mbps)/rung.Mbps > 0.15 {
			t.Errorf("quality %d mean bitrate %v, nominal %v (>15%% off)", q, mean, rung.Mbps)
		}
	}
}

func TestSSIMAnchorsMatchPaper(t *testing.T) {
	v := MustSynthesize(DefaultConfig(4))
	var lo, hi float64
	for n := 0; n < v.NumChunks(); n++ {
		lo += v.SSIM(n, 0)
		hi += v.SSIM(n, v.NumQualities()-1)
	}
	lo /= float64(v.NumChunks())
	hi /= float64(v.NumChunks())
	if math.Abs(lo-0.908) > 0.01 {
		t.Errorf("lowest-quality mean SSIM %v, paper anchor 0.908", lo)
	}
	if math.Abs(hi-0.986) > 0.01 {
		t.Errorf("highest-quality mean SSIM %v, paper anchor 0.986", hi)
	}
}

func TestDuration(t *testing.T) {
	v := MustSynthesize(DefaultConfig(1))
	if d := float64(v.NumChunks()) * v.ChunkSeconds(); d != 600 {
		t.Errorf("default video duration %v, want 600", d)
	}
}

func TestWithLadderPreservesComplexity(t *testing.T) {
	// The "change of qualities" counterfactual: the same seed on another
	// ladder is the same content.
	v := MustSynthesize(DefaultConfig(6))
	cfg := DefaultConfig(6)
	cfg.Ladder = HigherLadder()
	hv := MustSynthesize(cfg)
	if hv.NumQualities() != len(HigherLadder()) {
		t.Fatalf("ladder height %d", hv.NumQualities())
	}
	if hv.NumChunks() != v.NumChunks() {
		t.Error("chunk count changed")
	}
	// Same seed: relative chunk complexity should correlate across
	// ladders. Check the correlation of per-chunk normalized sizes at
	// each ladder's top rung.
	var a, b []float64
	for n := 0; n < v.NumChunks(); n++ {
		a = append(a, v.Size(n, v.NumQualities()-1))
		b = append(b, hv.Size(n, hv.NumQualities()-1))
	}
	var corrNum, corrA, corrB, meanA, meanB float64
	for i := range a {
		meanA += a[i]
		meanB += b[i]
	}
	meanA /= float64(len(a))
	meanB /= float64(len(b))
	for i := range a {
		corrNum += (a[i] - meanA) * (b[i] - meanB)
		corrA += (a[i] - meanA) * (a[i] - meanA)
		corrB += (b[i] - meanB) * (b[i] - meanB)
	}
	if corr := corrNum / math.Sqrt(corrA*corrB); corr < 0.5 {
		t.Errorf("chunk complexity correlation across ladders %v, want > 0.5", corr)
	}
}

func TestHigherLadderIsHigher(t *testing.T) {
	def, high := DefaultLadder(), HigherLadder()
	if high[0].Mbps <= def[0].Mbps {
		t.Error("higher ladder should drop the lowest rungs")
	}
	if high[len(high)-1].Mbps <= def[len(def)-1].Mbps {
		t.Error("higher ladder should add rungs above the original maximum")
	}
}

func TestSizeFloor(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.VBRStd = 0.9 // extreme variation
	v := MustSynthesize(cfg)
	for n := 0; n < v.NumChunks(); n++ {
		for q := 0; q < v.NumQualities(); q++ {
			if v.Size(n, q) < 200 {
				t.Fatalf("chunk %d quality %d size %v below floor", n, q, v.Size(n, q))
			}
		}
	}
}

// TestPrefixEqualsSynthesis pins the prefix view to synthesis: the
// default clip's first n chunks are the n-chunk clip of the same
// config, chunk count included, without a second synthesis.
func TestPrefixEqualsSynthesis(t *testing.T) {
	full := Default()
	for _, n := range []int{1, 60, 299, 300} {
		cfg := DefaultConfig(1)
		cfg.NumChunks = n
		want := MustSynthesize(cfg)
		got := full.Prefix(n)
		if got.NumChunks() != n || got.NumChunks() != want.NumChunks() {
			t.Fatalf("Prefix(%d) has %d chunks, synthesis %d", n, got.NumChunks(), want.NumChunks())
		}
		if got.ChunkSeconds() != want.ChunkSeconds() || got.NumQualities() != want.NumQualities() {
			t.Errorf("Prefix(%d): chunk %v s, %d rungs; synthesis %v s, %d",
				n, got.ChunkSeconds(), got.NumQualities(), want.ChunkSeconds(), want.NumQualities())
		}
		for c := 0; c < n; c++ {
			for q := 0; q < want.NumQualities(); q++ {
				if got.Size(c, q) != want.Size(c, q) || got.SSIM(c, q) != want.SSIM(c, q) || got.Bitrate(c, q) != want.Bitrate(c, q) {
					t.Fatalf("Prefix(%d) chunk %d quality %d differs from synthesis", n, c, q)
				}
			}
		}
	}
	if full.Prefix(300) != full || full.Prefix(1000) != full {
		t.Error("a prefix of the whole clip or more is not the clip itself")
	}
	if p := full.Prefix(60).Prefix(20); p.NumChunks() != 20 || p.Size(19, 3) != full.Size(19, 3) {
		t.Error("a prefix of a prefix lost its chunks")
	}
	defer func() {
		if recover() == nil {
			t.Error("Prefix(0) did not panic")
		}
	}()
	full.Prefix(0)
}

// TestUtilitiesSharedByPrefixViews: a clip's utility row is ln(S_q/S_0)
// of its sizes, its views read the clip's one table (the same memory),
// and a view refuses a chunk past its end as Size does. The first calls
// come from several goroutines at once (run with -race).
func TestUtilitiesSharedByPrefixViews(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.NumChunks = 50
	full := MustSynthesize(cfg)
	views := []*Video{full.Prefix(30), full, full.Prefix(40).Prefix(10)}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(v *Video) {
			defer wg.Done()
			for n := 0; n < v.NumChunks(); n++ {
				u := v.Utilities(n)
				if len(u) != v.NumQualities() || u[0] != 0 {
					t.Errorf("chunk %d: utilities %v", n, u)
					return
				}
				for q, got := range u {
					if want := math.Log(v.Size(n, q) / v.Size(n, 0)); got != want {
						t.Errorf("chunk %d quality %d: utility %v, want %v", n, q, got, want)
						return
					}
				}
			}
		}(views[g%len(views)])
	}
	wg.Wait()
	for _, v := range views {
		if &v.Utilities(9)[0] != &full.Utilities(9)[0] {
			t.Errorf("a %d-chunk view reads a table of its own", v.NumChunks())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a 30-chunk view served chunk 30's utilities")
		}
	}()
	views[0].Utilities(30)
}
