package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own tracing: a span around every call it makes into
// a layer of the program. Nothing inside the program is instrumented
// here (that is a later change); the layer of a span is the package
// whose public function the benchmark called.
//
// A nil *recorder hands out nil spans whose methods do nothing, so the
// untraced end-to-end run executes the same code with tracing off.

type span struct {
	rec    *recorder
	id     int
	parent int // 0 = root
	layer  string
	name   string
	track  int // Chrome "tid": one timeline row per concurrent actor
	start  time.Time
	end    time.Time
}

type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []*span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under parent (nil = top level).
func (r *recorder) begin(parent *span, layer, name string) *span {
	if r == nil {
		return nil
	}
	s := &span{rec: r, layer: layer, name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
		s.track = parent.track
	}
	r.mu.Lock()
	s.id = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// onTrack moves the span (and the children opened after this call) to
// its own timeline row; used for concurrent clients.
func (s *span) onTrack(t int) *span {
	if s != nil {
		s.track = t
	}
	return s
}

func (s *span) finish() {
	if s != nil {
		s.end = time.Now()
	}
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layers sums, per layer, span time and self time: a span's duration
// minus the part of it its child spans cover (overlapping children are
// merged first, so concurrent children are not subtracted twice).
func (r *recorder) layers() []layerTime {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]*span(nil), r.spans...)
	r.mu.Unlock()
	kids := make(map[int][]*span)
	for _, s := range spans {
		if !s.end.IsZero() {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	by := make(map[string]*layerTime)
	for _, s := range spans {
		if s.end.IsZero() {
			continue
		}
		lt := by[s.layer]
		if lt == nil {
			lt = &layerTime{Layer: s.layer}
			by[s.layer] = lt
		}
		dur := s.end.Sub(s.start)
		lt.Spans++
		lt.TotalS += dur.Seconds()
		lt.SelfS += (dur - covered(kids[s.id], s.start, s.end)).Seconds()
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered returns how much of [lo, hi] the spans cover.
func covered(spans []*span, lo, hi time.Time) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	cur := lo
	for _, s := range spans {
		a, b := s.start, s.end
		if a.Before(cur) {
			a = cur
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			total += b.Sub(a)
			cur = b
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events), loadable in Perfetto or chrome://tracing.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Sub(r.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.track,
			Args: map[string]any{"id": s.id, "parent": s.parent, "workload": r.workload},
		})
	}
	r.mu.Unlock()
	body, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
