package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"veritas/internal/stats"
	"veritas/internal/trace"
)

// TestBuildCorpusIndependentOfWorkers: the worker count shapes how fast
// the corpus is built, never what it holds — every spec's ID, scenario,
// net seed and trace point, and the error of a corpus with bad
// scenarios, are the serial build's. The serial build's traces, each
// drawn from its worker's one reseeded generator, are those a fresh
// trace.Generate gives.
func TestBuildCorpusIndependentOfWorkers(t *testing.T) {
	cfg := CorpusConfig{SessionsPer: 5, NumChunks: 30, Seed: 4, Workers: 1}
	serial, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range serial {
		if s.Scenario == "square" {
			continue
		}
		gcfg, err := trace.RegimeConfig(s.Scenario, s.Net.Seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trace.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Trace, want) {
			t.Errorf("spec %s: the worker's reseeded generator drew another trace than trace.Generate", s.ID)
		}
	}
	bad := CorpusConfig{Scenarios: []string{"fcc", "lte", "dialup", "wifi", "vhs"}, SessionsPer: 3, Seed: 4, Workers: 1}
	_, serialErr := BuildCorpus(bad)
	if serialErr == nil || !strings.Contains(serialErr.Error(), `"dialup"`) {
		t.Fatalf("a corpus naming dialup before vhs: error %v, want dialup's", serialErr)
	}
	for _, workers := range []int{2, 3, 64} {
		cfg.Workers = workers
		got, err := BuildCorpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d specs, serial build has %d", workers, len(got), len(serial))
		}
		for k := range serial {
			g, w := got[k], serial[k]
			if g.ID != w.ID || g.Scenario != w.Scenario || g.BufferCap != w.BufferCap {
				t.Errorf("workers=%d: spec %d is %s/%s (%g s buffer), serial build has %s/%s (%g s)",
					workers, k, g.Scenario, g.ID, g.BufferCap, w.Scenario, w.ID, w.BufferCap)
			}
			if g.Video != got[0].Video || !reflect.DeepEqual(g.Video, w.Video) {
				t.Errorf("workers=%d: spec %s streams another clip than the serial build's", workers, g.ID)
			}
			if *g.Net != *w.Net {
				t.Errorf("workers=%d: spec %s net %+v, serial build %+v", workers, g.ID, *g.Net, *w.Net)
			}
			if !reflect.DeepEqual(g.Trace, w.Trace) {
				t.Errorf("workers=%d: spec %s trace differs from the serial build's", workers, g.ID)
			}
		}
		bad.Workers = workers
		if _, err := BuildCorpus(bad); err == nil || err.Error() != serialErr.Error() {
			t.Errorf("workers=%d: bad corpus error %v, serial build gives %v", workers, err, serialErr)
		}
	}
}

// TestForEachIndexReturnsLowestError: however the failures race, the
// error returned is the lowest failed index's, and every index below it
// ran — what a serial loop stopping at its first failure gives. Each
// call names its goroutine, one of min(workers, n) (at least one), and
// no goroutine runs two calls at once, so per-worker state indexed by
// it needs no lock.
func TestForEachIndexReturnsLowestError(t *testing.T) {
	const n, first = 40, 7
	if err := forEachIndex(0, 4, func(int, int) error { panic("no index to run") }); err != nil {
		t.Fatalf("no indices: %v", err)
	}
	for _, workers := range []int{0, 1, 2, 3, 64} {
		var mu sync.Mutex
		ran := make([]bool, n)
		busy := make([]bool, min(max(workers, 1), n))
		err := forEachIndex(n, workers, func(w, k int) error {
			mu.Lock()
			if w < 0 || w >= len(busy) || busy[w] {
				mu.Unlock()
				return fmt.Errorf("index %d: worker %d out of range or already busy", k, w)
			}
			ran[k], busy[w] = true, true
			mu.Unlock()
			defer func() { mu.Lock(); busy[w] = false; mu.Unlock() }()
			switch {
			case k == first:
				time.Sleep(5 * time.Millisecond) // later failures land first
				return fmt.Errorf("index %d", k)
			case k > first && k%3 == 0:
				return fmt.Errorf("index %d", k)
			}
			return nil
		})
		if err == nil || err.Error() != fmt.Sprintf("index %d", first) {
			t.Errorf("workers=%d: error %v, want the lowest failed index %d's", workers, err, first)
		}
		for k := 0; k < first; k++ {
			if !ran[k] {
				t.Errorf("workers=%d: index %d below the failure never ran", workers, k)
			}
		}
	}
}

// summarizeFiveCalls is Summarize as five independent percentile calls,
// each sorting its own copy: the oracle for the one-sort form.
func summarizeFiveCalls(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(vals),
		Mean: stats.Mean(vals),
		Min:  stats.Min(vals),
		P10:  stats.Percentile(vals, 10),
		P25:  stats.Percentile(vals, 25),
		P50:  stats.Percentile(vals, 50),
		P75:  stats.Percentile(vals, 75),
		P90:  stats.Percentile(vals, 90),
		Max:  stats.Max(vals),
	}
}

func TestSummarizeMatchesFiveCallForm(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	extremes := []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		if trial < 10 {
			n = 1
		}
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(3) {
			case 0: // ties: a handful of distinct values
				vals[i] = float64(rng.Intn(4))
			case 1:
				vals[i] = extremes[rng.Intn(len(extremes))]
			default:
				vals[i] = rng.NormFloat64() * 100
			}
		}
		in := append([]float64(nil), vals...)
		if got, want := Summarize(vals), summarizeFiveCalls(in); got != want {
			t.Fatalf("Summarize(%v) = %+v, five-call form gives %+v", in, got, want)
		}
		if !reflect.DeepEqual(vals, in) {
			t.Fatalf("Summarize reordered its input: %v, was %v", vals, in)
		}
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want the zero Summary", got)
	}
}

// BenchmarkBuildCorpus builds the default corpus: every scenario ×
// DefaultSessionsPer sessions over the full clip.
func BenchmarkBuildCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCorpus(CorpusConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
