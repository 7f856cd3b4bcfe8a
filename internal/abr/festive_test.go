package abr

import "testing"

func TestFestiveStartsLow(t *testing.T) {
	v := testVideo(t)
	f := NewFestive()
	ctx := ctxWith(v, 0, nil)
	ctx.ChunkIndex = 0
	if got := f.Choose(ctx); got != 0 {
		t.Errorf("first chunk quality %d, want 0", got)
	}
}

func TestFestiveGradualUp(t *testing.T) {
	v := testVideo(t)
	f := NewFestive()
	high := []float64{50, 50, 50, 50, 50}
	ctx := ctxWith(v, 3, high)
	ctx.ChunkIndex = 0
	f.Choose(ctx) // startup chunk

	// Each step up needs festiveUpDelay consecutive confirmations, and rungs
	// rise one at a time.
	prev := 0
	for i := 1; i < 40; i++ {
		c := ctxWith(v, 3, high)
		c.ChunkIndex = i
		got := f.Choose(c)
		if got > prev+1 {
			t.Fatalf("chunk %d jumped %d -> %d; Festive must step one rung", i, prev, got)
		}
		if got < prev {
			t.Fatalf("chunk %d stepped down on a fast link", i)
		}
		prev = got
	}
	if prev != v.NumQualities()-1 {
		t.Errorf("after 40 fast chunks Festive reached rung %d, want top", prev)
	}
}

func TestFestiveStepsDownImmediately(t *testing.T) {
	v := testVideo(t)
	f := NewFestive()
	ctx := ctxWith(v, 3, []float64{50, 50, 50, 50, 50})
	ctx.ChunkIndex = 0
	f.Choose(ctx)
	for i := 1; i < 40; i++ {
		c := ctxWith(v, 3, []float64{50, 50, 50, 50, 50})
		c.ChunkIndex = i
		f.Choose(c)
	}
	// Throughput collapses: quality must fall on the very next chunk.
	before := f.current
	c := ctxWith(v, 3, []float64{0.2, 0.2, 0.2, 0.2, 0.2})
	c.ChunkIndex = 41
	got := f.Choose(c)
	if got != before-1 {
		t.Errorf("after collapse chose %d, want immediate one-rung drop from %d", got, before)
	}
}

func TestFestiveUpDelayResetsOnStall(t *testing.T) {
	v := testVideo(t)
	f := NewFestive()
	ctx := ctxWith(v, 3, nil)
	ctx.ChunkIndex = 0
	f.Choose(ctx)
	// Two confirmations, then a chunk where ref == current: counter
	// must reset, so two more confirmations do not trigger a switch.
	high := []float64{50, 50, 50, 50, 50}
	low := []float64{0.05, 0.05, 0.05, 0.05, 0.05}
	seq := [][]float64{high, high, low, high, high}
	prev := f.current
	for i, tputs := range seq {
		c := ctxWith(v, 3, tputs)
		c.ChunkIndex = i + 1
		got := f.Choose(c)
		if got > prev {
			t.Fatalf("step %d switched up without %d consecutive confirmations", i, festiveUpDelay)
		}
		prev = got
	}
}
