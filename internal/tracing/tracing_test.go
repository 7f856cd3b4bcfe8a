package tracing

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// finishWith pushes a synthetic trace with a fixed duration through the
// sampler, bypassing the clock.
func finishWith(tr *Tracer, kind, id string, dur float64, err string) {
	tr.finish(Trace{Kind: kind, ID: id, Dur: dur, Err: err})
}

func durs(ts []Trace) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Dur
	}
	return out
}

func TestTailSamplingKeepsSlowest(t *testing.T) {
	tr := New(3)
	for i := 1; i <= 10; i++ {
		finishWith(tr, "session", fmt.Sprintf("s-%d", i), float64(i), "")
	}
	got := tr.Traces()
	if len(got) != 3 {
		t.Fatalf("kept %d traces, want 3: %v", len(got), durs(got))
	}
	want := []float64{10, 9, 8}
	for i, d := range want {
		if got[i].Dur != d {
			t.Fatalf("slot %d: dur %v, want %v (all: %v)", i, got[i].Dur, d, durs(got))
		}
	}
}

func TestTailSamplingInterleavedEviction(t *testing.T) {
	tr := New(2)
	for _, d := range []float64{5, 1, 7, 3, 9, 2} {
		finishWith(tr, "session", fmt.Sprintf("s-%v", d), d, "")
	}
	got := durs(tr.Traces())
	if len(got) != 2 || got[0] != 9 || got[1] != 7 {
		t.Fatalf("kept %v, want [9 7]", got)
	}
}

func TestErroredTracesAlwaysKept(t *testing.T) {
	tr := New(2)
	for i := 1; i <= 5; i++ {
		finishWith(tr, "session", fmt.Sprintf("ok-%d", i), float64(i), "")
	}
	finishWith(tr, "session", "bad", 0.001, "boom")
	got := tr.Traces()
	if len(got) != 3 {
		t.Fatalf("kept %d traces, want 2 slow + 1 errored: %+v", len(got), got)
	}
	var found bool
	for _, tc := range got {
		if tc.Err == "boom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("errored trace missing from %+v", got)
	}
}

func TestErroredRingBounded(t *testing.T) {
	tr := New(2)
	for i := 0; i < maxErrored+10; i++ {
		finishWith(tr, "session", fmt.Sprintf("bad-%d", i), 1, "err")
	}
	got := tr.Traces()
	if len(got) != maxErrored {
		t.Fatalf("errored ring holds %d, want %d", len(got), maxErrored)
	}
	// The ring overwrites oldest-first: bad-0..bad-9 must be gone.
	for _, tc := range got {
		if tc.ID == "bad-0" {
			t.Fatalf("oldest errored trace not evicted: %+v", tc)
		}
	}
}

func TestBuilderRecordsSpansAndAttrs(t *testing.T) {
	tr := New(4)
	b := tr.Start("session", "s-1")
	s0 := b.Now()
	time.Sleep(time.Millisecond)
	b.Span("simulate", s0, map[string]any{"chunks": 12})
	b.SetAttr("scenario", "lte")
	b.Finish(nil)

	got := tr.Traces()
	if len(got) != 1 {
		t.Fatalf("kept %d traces, want 1", len(got))
	}
	tc := got[0]
	if tc.Kind != "session" || tc.ID != "s-1" {
		t.Fatalf("identity = %s/%s", tc.Kind, tc.ID)
	}
	if tc.Dur <= 0 {
		t.Fatalf("trace duration %v, want > 0", tc.Dur)
	}
	if len(tc.Spans) != 1 || tc.Spans[0].Name != "simulate" {
		t.Fatalf("spans = %+v", tc.Spans)
	}
	sp := tc.Spans[0]
	if sp.Dur <= 0 || sp.Start < 0 || sp.Start+sp.Dur > tc.Dur+0.01 {
		t.Fatalf("span timing start=%v dur=%v trace dur=%v", sp.Start, sp.Dur, tc.Dur)
	}
	if sp.Attrs["chunks"] != 12 {
		t.Fatalf("span attrs = %v", sp.Attrs)
	}
	if tc.Attrs["scenario"] != "lte" {
		t.Fatalf("trace attrs = %v", tc.Attrs)
	}
}

func TestFinishWithError(t *testing.T) {
	tr := New(1)
	b := tr.Start("worker", "shard-0")
	b.Finish(errors.New("exit status 137"))
	got := tr.Traces()
	if len(got) != 1 || got[0].Err != "exit status 137" {
		t.Fatalf("got %+v", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	b := tr.Start("session", "s")
	if b != nil {
		t.Fatalf("nil tracer handed out non-nil builder")
	}
	// All builder methods must be callable on nil.
	if !b.Now().IsZero() {
		t.Fatalf("nil builder Now() not zero")
	}
	b.Span("x", time.Time{}, nil)
	b.SetAttr("k", 1)
	b.Finish(errors.New("ignored"))
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer Traces() = %v, want nil", got)
	}
	if tr.Keep() != DefaultKeep {
		t.Fatalf("nil tracer Keep() = %d", tr.Keep())
	}
}

func TestMergeFleetView(t *testing.T) {
	a := []Trace{
		{Kind: "session", ID: "a1", Shard: 0, Dur: 5},
		{Kind: "session", ID: "a2", Shard: 0, Dur: 1},
	}
	b := []Trace{
		{Kind: "session", ID: "b1", Shard: 1, Dur: 7},
		{Kind: "session", ID: "b2", Shard: 1, Dur: 0.1, Err: "crash"},
	}
	got := Merge(2, a, b)
	// Top 2 successful (7, 5) + the errored one.
	if len(got) != 3 {
		t.Fatalf("merged %d traces, want 3: %+v", len(got), got)
	}
	if got[0].ID != "b1" || got[1].ID != "a1" {
		t.Fatalf("order = %s, %s; want b1, a1", got[0].ID, got[1].ID)
	}
	if got[2].Err != "crash" {
		t.Fatalf("errored trace missing: %+v", got)
	}
}

func TestMergeDeterministicTieBreak(t *testing.T) {
	set := []Trace{
		{Kind: "session", ID: "b", Dur: 1},
		{Kind: "session", ID: "a", Dur: 1},
		{Kind: "append", ID: "z", Dur: 1},
	}
	got := Merge(10, set)
	if got[0].Kind != "append" || got[1].ID != "a" || got[2].ID != "b" {
		t.Fatalf("tie-break order wrong: %+v", got)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	in := Trace{
		Kind: "session", ID: "s-1", Shard: 2,
		Wall: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Dur:  1.5, Err: "x",
		Attrs: map[string]any{"scenario": "lte"},
		Spans: []Span{{Name: "simulate", Start: 0.1, Dur: 0.2}},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Trace
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.ID != in.ID || out.Shard != in.Shard ||
		out.Dur != in.Dur || out.Err != in.Err || !out.Wall.Equal(in.Wall) ||
		len(out.Spans) != 1 || out.Spans[0].Name != in.Spans[0].Name ||
		out.Spans[0].Start != in.Spans[0].Start || out.Spans[0].Dur != in.Spans[0].Dur {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := New(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := tr.Start("session", fmt.Sprintf("w%d-%d", w, i))
				s := b.Now()
				b.Span("stage", s, nil)
				if i%17 == 0 {
					b.Finish(errors.New("flaky"))
				} else {
					b.Finish(nil)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Traces()
		}
	}()
	wg.Wait()
	<-done
	// 8 workers × 200 traces, every 17th errored: 96 errors.
	if kept, want := len(tr.Traces()), 8+min(96, maxErrored); kept != want {
		t.Fatalf("kept %d traces, want %d", kept, want)
	}
}
