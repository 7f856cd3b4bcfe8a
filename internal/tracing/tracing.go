// Package tracing is the per-session lens of the Veritas observability
// plane. Where telemetry answers "how fast is the fleet on average"
// (aggregate histograms), tracing answers "which sessions are slow and
// which pipeline stage inside them stalls": every traced unit of work —
// an engine session, a store append, a served request, a dispatched
// worker's lifetime — becomes a Trace holding timed child Spans with
// attributes (chunk counts, arm names, byte sizes).
//
// Full tracing at millions of sessions is unaffordable, so the tracer
// **tail-samples**: a trace is built worker-locally (recording a span
// is lock-free — the builder T is owned by one goroutine, the
// per-worker buffer), and only at Finish does the tracer decide, in one
// short critical section, whether the completed trace is notable. It
// keeps the N slowest successful traces plus a bounded ring of every
// errored one; everything else is dropped on the spot, so memory is
// O(N) whatever the corpus size.
//
// Design constraints, shared with the telemetry registry:
//
//   - Nil-safety: a nil *Tracer hands out nil builders whose methods
//     are no-ops, so instrumented code needs no "is tracing on?"
//     branches, and "tracing off" is spelled by threading nil through.
//   - Tracing must never perturb results. Nothing here feeds back into
//     computation — determinism tests pin engine reports byte-identical
//     with tracing on and off.
//   - Traces must cross process boundaries: a Trace is plain JSON
//     (dispatch workers stream their notable sets up the NDJSON event
//     protocol) and sets Merge into one fleet-wide "slowest sessions"
//     view under the same tail-sampling policy.
//
// Notable traces export as Chrome trace-event JSON (chrome.go), loadable
// in Perfetto or chrome://tracing.
package tracing

import (
	"sort"
	"sync"
	"time"
)

// DefaultKeep is the tail sampler's default N: how many of the slowest
// successful traces a tracer retains.
const DefaultKeep = 32

// maxErrored bounds the errored-trace ring: every errored trace is
// notable, but a pathology erroring millions of times must not hold
// millions of traces — the ring keeps the most recent maxErrored.
const maxErrored = 64

// Span is one timed operation inside a trace: a pipeline stage, an arm
// replay, a segment rotation. Offsets are relative to the trace start
// and monotonic-clock derived.
type Span struct {
	Name string `json:"name"`
	// Start is the span's offset from the trace start, in seconds.
	Start float64 `json:"start"`
	// Dur is the span's duration in seconds.
	Dur float64 `json:"dur"`
	// Attrs carry span-scoped context (chunk counts, arm names). Values
	// must be JSON-serializable.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Trace is one completed unit of work: plain data that serializes to
// JSON (the dispatch workers' NDJSON trace lines) and exports as Chrome
// trace events.
type Trace struct {
	// Kind labels the traced unit: "session", "append", "fsync",
	// "request", "worker", "backoff", "fold".
	Kind string `json:"kind"`
	// ID names the unit within its kind: session ID, request path,
	// "shard-2".
	ID string `json:"id"`
	// Shard is the shard index the trace came from, set by dispatch
	// workers so a fleet-wide view keeps provenance.
	Shard int `json:"shard,omitempty"`
	// Agent names the fleet agent the trace came from, stamped by a
	// fleet dispatcher on traces heartbeated over the wire so the merged
	// view says which machine ran what (work stealing can move a shard
	// between agents mid-campaign).
	Agent string `json:"agent,omitempty"`
	// Wall anchors the trace on the wall clock (export timelines align
	// traces from different processes by it); Dur is monotonic-clock
	// elapsed seconds.
	Wall time.Time `json:"wall"`
	Dur  float64   `json:"dur"`
	// Err is the failure message of an errored trace (always retained
	// by the sampler, up to the ring bound).
	Err   string         `json:"err,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
	Spans []Span         `json:"spans,omitempty"`
}

// T builds one in-flight trace. It is owned by a single goroutine (the
// worker running the traced unit) and records spans without locking;
// only Finish touches the tracer. A nil *T is a no-op, so callers never
// branch on "is tracing on?".
type T struct {
	tr   *Tracer
	t0   time.Time
	data Trace
}

// Now returns the span clock: the current time, or the zero time on a
// nil builder so untraced runs pay no clock reads. The zero time is
// never observed — every Span call that could see it is a no-op.
func (t *T) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records one completed child span from start (a T.Now value) to
// now. attrs may be nil; ownership transfers to the trace.
func (t *T) Span(name string, start time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.data.Spans = append(t.data.Spans, Span{
		Name:  name,
		Start: start.Sub(t.t0).Seconds(),
		Dur:   time.Since(start).Seconds(),
		Attrs: attrs,
	})
}

// SetAttr attaches one trace-scoped attribute.
func (t *T) SetAttr(key string, v any) {
	if t == nil {
		return
	}
	if t.data.Attrs == nil {
		t.data.Attrs = make(map[string]any)
	}
	t.data.Attrs[key] = v
}

// Finish completes the trace and hands it to the tracer's tail sampler:
// errored traces are always kept (ring-bounded), successful ones only
// if they are among the N slowest seen so far. Finish must be called
// exactly once; the builder must not be used afterwards.
func (t *T) Finish(err error) {
	if t == nil {
		return
	}
	t.data.Dur = time.Since(t.t0).Seconds()
	if err != nil {
		t.data.Err = err.Error()
	}
	t.tr.finish(t.data)
}

// Tracer is a tail-sampling trace collector. Methods are safe for
// concurrent use; a nil *Tracer is fully usable and hands out nil
// (no-op) builders, so "tracing off" is spelled by threading nil
// through, exactly like a nil telemetry registry.
type Tracer struct {
	keep int

	mu sync.Mutex
	// slow holds the retained successful traces sorted ascending by
	// duration, so slot 0 is the eviction candidate.
	slow []Trace
	// errs is the ring of errored traces; errNext is the overwrite
	// cursor once the ring is full.
	errs    []Trace
	errNext int
}

// New returns a tracer retaining the keep slowest successful traces
// (DefaultKeep when keep <= 0) plus a bounded ring of errored ones.
func New(keep int) *Tracer {
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Tracer{keep: keep}
}

// Keep returns the tracer's tail-sample size (DefaultKeep on nil).
func (tr *Tracer) Keep() int {
	if tr == nil {
		return DefaultKeep
	}
	return tr.keep
}

// Start begins a trace of one unit of work. On a nil tracer it returns
// a nil builder, whose methods are all no-ops.
func (tr *Tracer) Start(kind, id string) *T {
	if tr == nil {
		return nil
	}
	now := time.Now()
	return &T{tr: tr, t0: now, data: Trace{Kind: kind, ID: id, Wall: now}}
}

// finish is the tail-sampling decision: one lock, one comparison
// against the current minimum, per completed trace.
func (tr *Tracer) finish(t Trace) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if t.Err != "" {
		if len(tr.errs) < maxErrored {
			tr.errs = append(tr.errs, t)
		} else {
			tr.errs[tr.errNext] = t
			tr.errNext = (tr.errNext + 1) % maxErrored
		}
		return
	}
	if len(tr.slow) >= tr.keep {
		if t.Dur <= tr.slow[0].Dur {
			return // faster than everything retained: sampled out
		}
		copy(tr.slow, tr.slow[1:])
		tr.slow = tr.slow[:len(tr.slow)-1]
	}
	i := sort.Search(len(tr.slow), func(i int) bool { return tr.slow[i].Dur >= t.Dur })
	tr.slow = append(tr.slow, Trace{})
	copy(tr.slow[i+1:], tr.slow[i:])
	tr.slow[i] = t
}

// Traces snapshots the notable set: every retained trace, slowest
// first (errored traces sort by duration like the rest, but are always
// present). Nil tracers return nil.
func (tr *Tracer) Traces() []Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	out := make([]Trace, 0, len(tr.slow)+len(tr.errs))
	out = append(out, tr.slow...)
	out = append(out, tr.errs...)
	tr.mu.Unlock()
	sortTraces(out)
	return out
}

// Merge folds several notable sets — a supervisor's own and the sets
// its workers streamed up — into one fleet-wide view under the same
// tail-sampling policy: every errored trace (ring-bounded), plus the
// keep slowest successful ones across all sets, slowest first.
func Merge(keep int, sets ...[]Trace) []Trace {
	if keep <= 0 {
		keep = DefaultKeep
	}
	var ok, errored []Trace
	for _, set := range sets {
		for _, t := range set {
			if t.Err != "" {
				errored = append(errored, t)
			} else {
				ok = append(ok, t)
			}
		}
	}
	sortTraces(ok)
	if len(ok) > keep {
		ok = ok[:keep]
	}
	sortTraces(errored)
	if len(errored) > maxErrored {
		errored = errored[:maxErrored]
	}
	out := append(ok, errored...)
	sortTraces(out)
	return out
}

// sortTraces orders a set slowest-first with a deterministic tie-break,
// so exports and merges are stable.
func sortTraces(ts []Trace) {
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].Dur != ts[j].Dur {
			return ts[i].Dur > ts[j].Dur
		}
		if ts[i].Kind != ts[j].Kind {
			return ts[i].Kind < ts[j].Kind
		}
		return ts[i].ID < ts[j].ID
	})
}
