package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// Every method must be a safe no-op on nil receivers.
	c.Add(3)
	c.Inc()
	g.Set(1)
	g.Add(2)
	h.Observe(time.Second)
	h.Since(time.Time{})
	r.RegisterFunc("f", CounterFunc, func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sessions_total")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if r.Counter("sessions_total") != c {
		t.Error("second lookup must return the same counter")
	}
	g := r.Gauge("backlog")
	g.Set(10)
	g.Add(-2.5)
	if g.Value() != 7.5 {
		t.Errorf("gauge = %v, want 7.5", g.Value())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("stage_seconds", []float64{0.001, 0.01, 0.1})
	// Bounds are inclusive upper edges (Prometheus `le`): exactly 1ms
	// lands in the first bucket, just over it in the second, and
	// anything past the last bound in the implicit +Inf slot.
	h.Observe(1 * time.Millisecond)
	h.Observe(1*time.Millisecond + 1)
	h.Observe(100 * time.Millisecond)
	h.Observe(200 * time.Millisecond)
	s := h.snapshot()
	want := []uint64{1, 1, 1, 1}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Errorf("bucket[%d] = %d, want %d (counts %v)", i, s.Counts[i], n, s.Counts)
		}
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	wantSum := (0.001 + 0.001 + 0.1 + 0.2) + 1e-9 // the +1ns observation
	if diff := s.Sum - wantSum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestRegisterFunc(t *testing.T) {
	r := NewRegistry()
	hits := 41.0
	r.RegisterFunc("cache_hits_total", CounterFunc, func() float64 { hits++; return hits })
	r.RegisterFunc("fill_ratio", GaugeFunc, func() float64 { return 0.5 })
	s := r.Snapshot()
	if s.Counters["cache_hits_total"] != 42 {
		t.Errorf("callback counter = %d, want 42", s.Counters["cache_hits_total"])
	}
	if s.Gauges["fill_ratio"] != 0.5 {
		t.Errorf("callback gauge = %v, want 0.5", s.Gauges["fill_ratio"])
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(`appends_total{shard="1"}`).Add(7)
	r.Gauge("segments").Set(3)
	r.Histogram("fsync_seconds").Observe(2 * time.Millisecond)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[`appends_total{shard="1"}`] != 7 || back.Gauges["segments"] != 3 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if h := back.Histograms["fsync_seconds"]; h.Count != 1 || len(h.Counts) != len(DefBuckets)+1 {
		t.Errorf("histogram round trip lost data: %+v", h)
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(counts []uint64) HistogramSnapshot {
		return HistogramSnapshot{
			Count: counts[0] + counts[1] + counts[2], Sum: 1,
			Bounds: []float64{0.1, 1}, Counts: counts,
		}
	}
	a := Snapshot{
		Counters:   map[string]uint64{"x_total": 1, "only_a_total": 5},
		Gauges:     map[string]float64{"done": 2},
		Histograms: map[string]HistogramSnapshot{"h": mk([]uint64{1, 0, 2})},
	}
	b := Snapshot{
		Counters:   map[string]uint64{"x_total": 10},
		Gauges:     map[string]float64{"done": 3},
		Histograms: map[string]HistogramSnapshot{"h": mk([]uint64{0, 4, 0})},
	}
	m := a.Merge(b)
	if m.Counters["x_total"] != 11 || m.Counters["only_a_total"] != 5 {
		t.Errorf("counters merged wrong: %v", m.Counters)
	}
	if m.Gauges["done"] != 5 {
		t.Errorf("gauges merged wrong: %v", m.Gauges)
	}
	h := m.Histograms["h"]
	if h.Count != 7 || h.Sum != 2 {
		t.Errorf("histogram count/sum merged wrong: %+v", h)
	}
	for i, want := range []uint64{1, 4, 2} {
		if h.Counts[i] != want {
			t.Errorf("bucket[%d] = %d, want %d", i, h.Counts[i], want)
		}
	}
	// Merge must not alias the inputs' slices.
	h.Counts[0] = 99
	if a.Histograms["h"].Counts[0] != 1 {
		t.Error("merge aliased an input's bucket slice")
	}
	// Mismatched bounds: count and sum still sum; buckets stay a's.
	c := Snapshot{Histograms: map[string]HistogramSnapshot{
		"h": {Count: 1, Sum: 9, Bounds: []float64{0.5}, Counts: []uint64{1, 0}},
	}}
	hm := a.Merge(c).Histograms["h"]
	if hm.Count != 4 || hm.Sum != 10 || len(hm.Counts) != 3 {
		t.Errorf("mismatched-bounds merge wrong: %+v", hm)
	}
}

// TestConcurrentRecording hammers one registry from many goroutines —
// creation races, recording races, snapshot races — and checks totals.
// Run under -race this is the package's thread-safety proof.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops_total")
			g := r.Gauge("level")
			h := r.Histogram("lat_seconds")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["ops_total"] != workers*perWorker {
		t.Errorf("counter = %d, want %d", s.Counters["ops_total"], workers*perWorker)
	}
	if s.Gauges["level"] != workers*perWorker {
		t.Errorf("gauge = %v, want %v", s.Gauges["level"], workers*perWorker)
	}
	if h := s.Histograms["lat_seconds"]; h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
}
