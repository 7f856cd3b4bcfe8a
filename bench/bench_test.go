package main

import (
	"encoding/json"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func specNames(ms []specMetric) (names []string, units map[string]string) {
	units = make(map[string]string)
	for _, m := range ms {
		names = append(names, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(names)
	return names, units
}

// Every workload, untraced and traced, at tiny scale: the names and
// units a run emits are exactly those BENCHMARK.json fixes, every
// check passes, and no end-to-end value is zero.
func TestRunsEmitExactlyTheNamedMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, program says %q", i, spec.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
	}
	for _, traced := range []bool{false, true} {
		wantNames, wantUnits := specNames(spec.EndToEnd)
		if traced {
			wantNames, wantUnits = specNames(spec.PerLayer)
		}
		for _, w := range workloads {
			r, res, err := execute(w, tiny, 1, 200*time.Millisecond, t.TempDir(), traced)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d: %v", w.name, traced, res.Correct, res.Attempted, res.Failed, r.problems)
			}
			var got []string
			for n, m := range res.Metrics {
				got = append(got, n)
				if !nameRE.MatchString(n) {
					t.Errorf("%s: metric name %q is malformed", w.name, n)
				}
				if m.Unit == "" || m.Unit != wantUnits[n] {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, n, m.Unit, wantUnits[n])
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, n, m.Value)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s (traced=%v): emitted metrics\n%v\nBENCHMARK.json names\n%v", w.name, traced, got, wantNames)
			}
			if r.digest == "" {
				t.Errorf("%s: no output digest", w.name)
			}
			// What an untraced run reports beside the gated set goes by
			// its per-layer name.
			_, layerUnits := specNames(spec.PerLayer)
			for n, m := range r.demoted() {
				if m.Unit != layerUnits[n] {
					t.Errorf("%s: demoted metric %s has unit %q, BENCHMARK.json says %q", w.name, n, m.Unit, layerUnits[n])
				}
			}
		}
	}
}

// The same seed must give the same request schedule and the same row
// bytes; another seed must not.
func TestGeneratorsAreDeterministic(t *testing.T) {
	base, err := realRows(7, tiny.seedSessions, tiny.seedChunks, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := realRows(7, tiny.seedSessions, tiny.seedChunks, 2)
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := func(seed int64) []byte {
		b, err := json.Marshal(synthRows(base, 50, seed))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := rowBytes(7), rowBytes(7); string(a) != string(b) {
		t.Error("synthRows: same seed, different row bytes")
	}
	if a, b := rowBytes(7), rowBytes(8); string(a) == string(b) {
		t.Error("synthRows: different seeds, same row bytes")
	}
	if !reflect.DeepEqual(base, again) {
		t.Error("realRows: rows depend on the worker count")
	}
	ids := rowIDs(synthRows(base, 50, 7))
	if a, b := schedule(7, 500, ids, readMix), schedule(7, 500, ids, readMix); !reflect.DeepEqual(a, b) {
		t.Error("schedule: same seed, different requests")
	}
	if a, b := schedule(7, 500, ids, readMix), schedule(8, 500, ids, readMix); reflect.DeepEqual(a, b) {
		t.Error("schedule: different seeds, same requests")
	}
	seen := make(map[string]bool)
	for _, rq := range schedule(7, 2000, ids, readMix) {
		seen[rq.Endpoint] = true
	}
	for _, ep := range endpoints {
		if !seen[ep] {
			t.Errorf("schedule never drew endpoint %s in 2000 requests", ep)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the spread criterion is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 2, 12, 3, 4, 5, 6, 7, 8})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// A layer's self time is its span minus what its children cover, with
// overlapping children counted once.
func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	rec := newRecorder("test")
	at := func(ms int) time.Time { return rec.t0.Add(time.Duration(ms) * time.Millisecond) }
	add := func(parent *span, layer string, from, to int) *span {
		s := rec.begin(parent, layer, layer)
		s.start, s.end = at(from), at(to)
		return s
	}
	root := add(nil, "outer", 0, 100)
	add(root, "inner", 10, 50)
	add(root, "inner", 30, 70) // overlaps the first: together they cover 10..70
	by := make(map[string]layerTime)
	for _, lt := range rec.layers() {
		by[lt.Layer] = lt
	}
	if got := by["outer"].SelfS; got < 0.0399 || got > 0.0401 {
		t.Errorf("outer self time = %v s, want 0.040", got)
	}
	if got := by["inner"].TotalS; got < 0.0799 || got > 0.0801 {
		t.Errorf("inner total = %v s, want 0.080", got)
	}
}

// The run's latency is every class's own percentile weighted by the
// class's share of the operations, not a percentile of the blend.
func TestLatencyWeighsClassPercentilesByShare(t *testing.T) {
	r := &run{lat: map[string][]float64{"cheap": {1, 1, 1}, "dear": {10}}}
	if got, want := r.latency(50), (3*1.0+1*10.0)/4; got != want {
		t.Errorf("latency(50) = %v, want %v", got, want)
	}
}
