// Package telemetry is the observability plane of the Veritas fleet: a
// dependency-free metrics registry — counters, gauges, and bucketed
// latency histograms — cheap enough to leave on in the hot path of
// every layer (engine workers, the store's append path, the serving
// layer, the dispatch supervisor).
//
// Design constraints, in order:
//
//   - Recording must cost nanoseconds and never take a lock: counters
//     and histogram buckets are single atomic adds; the registry lock
//     is taken only at metric *creation* (once per name, at layer
//     startup) and at snapshot/exposition time.
//   - Telemetry must never perturb results. Nothing here feeds back
//     into computation — determinism tests pin engine reports
//     byte-identical with telemetry on and off — and every type is
//     nil-safe: a nil *Registry hands out nil metrics whose methods
//     are no-ops, so instrumented code needs no "is telemetry on?"
//     branches.
//   - Snapshots must cross process boundaries. A Snapshot is plain
//     JSON (dispatch workers stream theirs up the NDJSON event
//     protocol) and snapshots merge additively, so a supervisor can
//     hold one fleet-wide view summed over its workers.
//
// Metric names follow the Prometheus convention (`veritas_<layer>_...`,
// counters ending in `_total`, durations in `_seconds`) and may carry a
// label set inline: Counter(`x_total{stage="abduct"}`) registers one
// variant per label value, and the exposition writer emits the shared
// `# TYPE` header once per base name. The full string is the registry
// key; nothing parses label values outside exposition.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Values are float64 so
// gauges can carry ratios and byte counts alike; storage is the float's
// bit pattern in an atomic word. A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d (a compare-and-swap loop; gauges are not
// hot-path metrics).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default latency bucket upper bounds, in seconds:
// sub-millisecond stage work through minute-scale sessions. An implicit
// +Inf bucket catches everything above the last bound.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a bucketed latency histogram: per-bucket atomic
// counters, a total count, and a sum held in integer nanoseconds so the
// hot path is three atomic adds and no compare-and-swap. A nil
// Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // finite upper bounds, seconds, ascending
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	secs := d.Seconds()
	// Buckets are few (≤ ~20); a linear scan beats binary search on
	// branch prediction and is already ~ns. Bounds are inclusive upper
	// edges, matching the Prometheus `le` convention.
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Since records the elapsed time from t0 — the stage-timer form:
//
//	defer h.Since(time.Now())  // or t0 := time.Now(); ...; h.Since(t0)
func (h *Histogram) Since(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0))
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    float64(h.sumNs.Load()) / 1e9,
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// FuncKind says how a callback metric is exposed.
type FuncKind int

const (
	// CounterFunc exposes the callback as a monotonic counter —
	// the fold-in path for counters that already live elsewhere
	// (the serving layer's body caches, the shared power cache).
	CounterFunc FuncKind = iota
	// GaugeFunc exposes the callback as a gauge.
	GaugeFunc
)

type funcMetric struct {
	kind FuncKind
	fn   func() float64
}

// Registry is a named collection of metrics. Methods are safe for
// concurrent use; metric handles, once obtained, record lock-free. A
// nil *Registry is fully usable and hands out nil (no-op) metrics, so
// "telemetry off" is spelled by threading a nil registry through.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]funcMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]funcMetric),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default latency
// buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, DefBuckets)
}

// HistogramBuckets returns the named histogram, creating it with the
// given ascending finite upper bounds (seconds) on first use. Bounds
// are fixed at creation; later calls return the existing histogram
// whatever bounds they pass.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers (or replaces) a callback metric, evaluated at
// snapshot time — the fold-in path for counters maintained elsewhere.
// fn must be safe for concurrent use.
func (r *Registry) RegisterFunc(name string, kind FuncKind, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = funcMetric{kind: kind, fn: fn}
}

// Snapshot captures every metric's current value, evaluating callback
// metrics. The snapshot is plain data: JSON-serializable, mergeable,
// and renderable as Prometheus text.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]funcMetric, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()

	// Callbacks run outside the registry lock: they may take their
	// owner's locks (a store's, a cache's), and holding ours across
	// them invites lock-order surprises.
	s := Snapshot{}
	if len(counters)+len(funcs) > 0 {
		s.Counters = make(map[string]uint64)
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64)
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64)
		}
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	for k, f := range funcs {
		v := f.fn()
		switch f.kind {
		case CounterFunc:
			s.Counters[k] = uint64(v)
		case GaugeFunc:
			if s.Gauges == nil {
				s.Gauges = make(map[string]float64)
			}
			s.Gauges[k] = v
		}
	}
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	return s
}

// HistogramSnapshot is one histogram's captured state. Counts is
// per-bucket (not cumulative) and one longer than Bounds: the final
// slot is the implicit +Inf bucket.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"` // seconds
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
}

// Snapshot is a point-in-time capture of a registry — plain data that
// serializes to JSON (the dispatch workers' NDJSON telemetry lines) and
// merges additively (the supervisor's fleet view).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Merge returns the additive union of s and o: counters, gauges and
// histogram buckets sum; a histogram present in both merges per bucket
// when the bounds agree and keeps s's buckets (summing count and sum)
// when they don't. Merging is how a dispatch supervisor folds worker
// snapshots into one fleet view, so "sum" is the right combination for
// every metric the workers emit — sessions, appends, cache traffic.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{}
	if len(s.Counters)+len(o.Counters) > 0 {
		out.Counters = make(map[string]uint64, len(s.Counters)+len(o.Counters))
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
		for k, v := range o.Counters {
			out.Counters[k] += v
		}
	}
	if len(s.Gauges)+len(o.Gauges) > 0 {
		out.Gauges = make(map[string]float64, len(s.Gauges)+len(o.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range o.Gauges {
			out.Gauges[k] += v
		}
	}
	if len(s.Histograms)+len(o.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms)+len(o.Histograms))
		for k, v := range s.Histograms {
			out.Histograms[k] = cloneHist(v)
		}
		for k, v := range o.Histograms {
			have, ok := out.Histograms[k]
			if !ok {
				out.Histograms[k] = cloneHist(v)
				continue
			}
			have.Count += v.Count
			have.Sum += v.Sum
			if boundsEqual(have.Bounds, v.Bounds) && len(have.Counts) == len(v.Counts) {
				for i := range v.Counts {
					have.Counts[i] += v.Counts[i]
				}
			}
			out.Histograms[k] = have
		}
	}
	return out
}

// Relabel returns a copy of s with label key=value appended to every
// metric name. It is how a fleet dispatcher keeps per-agent provenance:
// an agent's streamed snapshot is relabeled with agent="<id>" before it
// joins the merged fleet view, so identically named series from
// different agents stay distinct columns instead of summing into one.
// A metric that already carries the key keeps its existing value (the
// nearer attribution wins); names with no label set gain one.
func (s Snapshot) Relabel(key, value string) Snapshot {
	out := Snapshot{}
	if len(s.Counters) > 0 {
		out.Counters = make(map[string]uint64, len(s.Counters))
		for k, v := range s.Counters {
			out.Counters[relabelName(k, key, value)] = v
		}
	}
	if len(s.Gauges) > 0 {
		out.Gauges = make(map[string]float64, len(s.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[relabelName(k, key, value)] = v
		}
	}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for k, v := range s.Histograms {
			out.Histograms[relabelName(k, key, value)] = cloneHist(v)
		}
	}
	return out
}

// relabelName splices label key=value into a metric name that may or
// may not already carry a {...} label set.
func relabelName(name, key, value string) string {
	quoted := fmt.Sprintf("%s=%q", key, value)
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name + "{" + quoted + "}"
	}
	if strings.Contains(name[i:], key+"=") {
		return name
	}
	return name[:len(name)-1] + "," + quoted + "}"
}

func cloneHist(h HistogramSnapshot) HistogramSnapshot {
	h.Bounds = append([]float64(nil), h.Bounds...)
	h.Counts = append([]uint64(nil), h.Counts...)
	return h
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedKeys returns m's keys in sorted order (exposition and tests
// need deterministic output).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
