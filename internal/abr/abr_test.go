package abr

import (
	"math"
	"testing"

	"veritas/internal/video"
)

func testVideo(t *testing.T) *video.Video {
	t.Helper()
	return video.MustSynthesize(video.DefaultConfig(1))
}

func ctxWith(v *video.Video, buffer float64, tputs []float64) Context {
	return Context{
		ChunkIndex:         10,
		BufferSeconds:      buffer,
		BufferCap:          5,
		LastQuality:        2,
		PastThroughputMbps: tputs,
		Video:              v,
	}
}

func TestHarmonicMean(t *testing.T) {
	got := HarmonicMean([]float64{1, 2}, 5)
	want := 2 / (1.0 + 0.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("HarmonicMean = %v, want %v", got, want)
	}
	if HarmonicMean(nil, 5) != 0 {
		t.Error("empty input should be 0")
	}
	if HarmonicMean([]float64{0, 0}, 5) != 0 {
		t.Error("all-zero input should be 0")
	}
	// Window limits to the last k.
	got = HarmonicMean([]float64{100, 4, 4}, 2)
	if got != 4 {
		t.Errorf("windowed harmonic mean = %v, want 4", got)
	}
}

func TestFixedClamps(t *testing.T) {
	v := testVideo(t)
	f := &Fixed{Quality: 99}
	if got := f.Choose(ctxWith(v, 3, nil)); got != v.NumQualities()-1 {
		t.Errorf("Fixed(99) = %d, want top rung", got)
	}
	f2 := &Fixed{Quality: -3}
	if got := f2.Choose(ctxWith(v, 3, nil)); got != 0 {
		t.Errorf("Fixed(-3) = %d, want 0", got)
	}
}

func TestMPCStartsLow(t *testing.T) {
	v := testVideo(t)
	m := NewMPC()
	ctx := ctxWith(v, 0, nil)
	ctx.ChunkIndex = 0
	ctx.LastQuality = -1
	if got := m.Choose(ctx); got != 0 {
		t.Errorf("MPC with no history chose %d, want 0", got)
	}
}

func TestMPCHighBandwidthHighQuality(t *testing.T) {
	v := testVideo(t)
	m := NewMPC()
	ctx := ctxWith(v, 4.5, []float64{50, 50, 50, 50, 50})
	ctx.LastQuality = v.NumQualities() - 1
	got := m.Choose(ctx)
	if got < v.NumQualities()-2 {
		t.Errorf("MPC with 50 Mbps and full buffer chose %d", got)
	}
}

func TestMPCLowBandwidthLowQuality(t *testing.T) {
	v := testVideo(t)
	m := NewMPC()
	ctx := ctxWith(v, 0.5, []float64{0.2, 0.2, 0.2, 0.2, 0.2})
	ctx.LastQuality = 0
	got := m.Choose(ctx)
	if got > 1 {
		t.Errorf("MPC with 0.2 Mbps and near-empty buffer chose %d", got)
	}
}

func TestMPCMonotoneInBandwidth(t *testing.T) {
	v := testVideo(t)
	prev := -1
	for _, bw := range []float64{0.3, 1, 2, 4, 8, 16} {
		m := NewMPC()
		ctx := ctxWith(v, 4, []float64{bw, bw, bw, bw, bw})
		ctx.LastQuality = -1
		got := m.Choose(ctx)
		if got < prev {
			t.Errorf("MPC quality decreased with bandwidth: %d after %d at %v Mbps", got, prev, bw)
		}
		prev = got
	}
}

func TestBBARegions(t *testing.T) {
	v := testVideo(t)
	b := NewBBA()
	// Below reservoir (20% of cap 5 = 1).
	if got := b.Choose(ctxWith(v, 0.5, nil)); got != 0 {
		t.Errorf("below reservoir chose %d", got)
	}
	// Above cushion (90% of cap 5 = 4.5).
	if got := b.Choose(ctxWith(v, 4.8, nil)); got != v.NumQualities()-1 {
		t.Errorf("above cushion chose %d", got)
	}
	// Middle: strictly between extremes and monotone in buffer.
	prev := 0
	for _, buf := range []float64{1.5, 2.0, 2.5, 3.0, 3.5, 4.0} {
		got := b.Choose(ctxWith(v, buf, nil))
		if got < prev {
			t.Errorf("BBA quality decreased with buffer: %d after %d at %v s", got, prev, buf)
		}
		prev = got
	}
}

func TestBBAIgnoresThroughput(t *testing.T) {
	v := testVideo(t)
	b := NewBBA()
	a := b.Choose(ctxWith(v, 3, []float64{0.1}))
	c := b.Choose(ctxWith(v, 3, []float64{100}))
	if a != c {
		t.Error("BBA should depend only on buffer")
	}
}

func TestBOLABufferMonotone(t *testing.T) {
	v := testVideo(t)
	b := NewBOLA()
	prev := -1
	for _, buf := range []float64{0, 1, 2, 3, 4} {
		got := b.Choose(ctxWith(v, buf, nil))
		if got < prev {
			t.Errorf("BOLA quality decreased with buffer: %d after %d at %v s", got, prev, buf)
		}
		prev = got
	}
}

func TestBOLAEmptyBufferPicksLow(t *testing.T) {
	v := testVideo(t)
	b := NewBOLA()
	if got := b.Choose(ctxWith(v, 0, nil)); got > 1 {
		t.Errorf("BOLA with empty buffer chose %d", got)
	}
}

func TestRandomCoversLadderAndIsSeeded(t *testing.T) {
	v := testVideo(t)
	r1 := NewRandom(7)
	r2 := NewRandom(7)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		a := r1.Choose(ctxWith(v, 2, nil))
		b := r2.Choose(ctxWith(v, 2, nil))
		if a != b {
			t.Fatal("same seed gave different choices")
		}
		if a < 0 || a >= v.NumQualities() {
			t.Fatalf("choice %d out of range", a)
		}
		seen[a] = true
	}
	if len(seen) < v.NumQualities()-1 {
		t.Errorf("random only covered %d rungs of %d", len(seen), v.NumQualities())
	}
}

func TestNames(t *testing.T) {
	for _, a := range []Algorithm{NewMPC(), NewBBA(), NewBOLA(), NewRandom(1), &Fixed{}} {
		if a.Name() == "" {
			t.Errorf("%T has empty name", a)
		}
	}
}
