// Package trace models ground-truth bandwidth (GTBW) time series: the
// piecewise-constant bandwidth processes that drive the emulated network
// and that Veritas's abduction tries to recover.
//
// A Trace is a sorted sequence of (start-time, Mbps) steps; the bandwidth
// holds its value from one step until the next. This matches the paper's
// model of GTBW as constant within each δ-length interval, and is also
// the format of Mahimahi-style replay traces the paper's testbed used.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Point is a single bandwidth step: the link runs at Mbps from time T
// until the time of the next point.
type Point struct {
	T    float64 // seconds from session start
	Mbps float64 // bandwidth during [T, next.T)
}

// valid reports whether the bandwidth is a finite non-negative number.
func (p Point) valid() bool { return p.Mbps >= 0 && !math.IsInf(p.Mbps, 1) }

// Trace is a piecewise-constant bandwidth series. The zero value is not
// usable; construct with New, FromSteps or a generator.
type Trace struct {
	points []Point
	// interval is the step width of a FromSteps trace, whose point i sits
	// at float64(i)*interval: a lookup there is an index, not a search.
	// It is 0 for a trace built by New, whose times may be anywhere.
	interval float64
}

// New builds a trace from points, sorting them by time and validating
// that times are distinct and bandwidths non-negative.
func New(points []Point) (*Trace, error) {
	if len(points) == 0 {
		return nil, errors.New("trace: need at least one point")
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].T < ps[j].T })
	for i, p := range ps {
		if !p.valid() {
			return nil, fmt.Errorf("trace: invalid bandwidth %v at t=%v", p.Mbps, p.T)
		}
		if i > 0 && ps[i-1].T == p.T {
			return nil, fmt.Errorf("trace: duplicate time %v", p.T)
		}
	}
	return &Trace{points: ps}, nil
}

// FromSteps builds a trace whose i-th value holds during
// [i*interval, (i+1)*interval). interval must be positive and finite.
// The points come out in time order by construction, so they are checked
// where they are made rather than copied and sorted by New; the trace
// remembers its interval, so At, NextChange and Segment find a step by
// index.
func FromSteps(interval float64, mbps []float64) (*Trace, error) {
	pts := make([]Point, len(mbps))
	for i, v := range mbps {
		pts[i].Mbps = v
	}
	return FromPoints(interval, pts)
}

// FromPoints is FromSteps over points whose bandwidths are already
// filled in: it sets point i's time to i*interval, runs FromSteps'
// checks and keeps pts as the trace's own — so a generator fills one
// slice and nothing is copied. A caller that recycles pts (an arena's
// step slab) recycles the trace's storage with it: the trace is then
// valid only until pts is refilled.
func FromPoints(interval float64, pts []Point) (*Trace, error) {
	if !(interval > 0) || math.IsInf(interval, 1) {
		return nil, errors.New("trace: interval must be a positive finite number")
	}
	if len(pts) == 0 {
		return nil, errors.New("trace: need at least one step")
	}
	for i := range pts {
		pts[i].T = float64(i) * interval
		if !pts[i].valid() {
			return nil, fmt.Errorf("trace: invalid bandwidth %v at t=%v", pts[i].Mbps, pts[i].T)
		}
		if i > 0 && !(pts[i].T > pts[i-1].T) {
			return nil, fmt.Errorf("trace: interval %v does not advance time at step %d", interval, i)
		}
	}
	return &Trace{points: pts, interval: interval}, nil
}

// Constant returns a trace holding mbps forever.
func Constant(mbps float64) *Trace {
	t, err := New([]Point{{T: 0, Mbps: mbps}})
	if err != nil {
		panic(err) // only reachable for invalid mbps
	}
	return t
}

// At returns the bandwidth in Mbps at time t. Times before the first
// point return the first bandwidth; times after the last hold the last.
func (tr *Trace) At(t float64) float64 {
	mbps, _ := tr.Segment(t)
	return mbps
}

// NextChange returns the time of the first step strictly after t, or
// +Inf if the trace has no further steps. Emulators use this to integrate
// piecewise: the bandwidth is guaranteed constant on [t, NextChange(t)).
func (tr *Trace) NextChange(t float64) float64 {
	_, next := tr.Segment(t)
	return next
}

// Segment returns At(t) and NextChange(t) from one lookup: the
// bandwidth holds its value mbps on all of [t, next).
func (tr *Trace) Segment(t float64) (mbps, next float64) {
	ps := tr.points
	i := tr.search(t)
	next = math.Inf(1)
	if i < len(ps) {
		next = ps[i].T
	}
	if i == 0 {
		return ps[0].Mbps, next
	}
	return ps[i-1].Mbps, next
}

// search returns the index of the first point strictly after t, or the
// point count if there is none. On a FromSteps trace, inside
// [0, last point), t/interval names the step up to rounding, and the two
// loops walk off any rounding slip; everywhere else — New traces, times
// before the first or from the last point on, NaN — it binary-searches.
func (tr *Trace) search(t float64) int {
	ps := tr.points
	last := len(ps) - 1
	if tr.interval > 0 && t >= 0 && t < ps[last].T {
		i := min(int(t/tr.interval), last)
		for ps[i].T > t {
			i--
		}
		for ps[i+1].T <= t {
			i++
		}
		return i + 1
	}
	return sort.Search(len(ps), func(i int) bool { return ps[i].T > t })
}

// Points returns a copy of the underlying steps.
func (tr *Trace) Points() []Point {
	out := make([]Point, len(tr.points))
	copy(out, tr.points)
	return out
}

// Len returns the number of steps.
func (tr *Trace) Len() int { return len(tr.points) }

// Duration returns the time of the last step (the trace holds its final
// value beyond this point).
func (tr *Trace) Duration() float64 { return tr.points[len(tr.points)-1].T }

// Mean returns the time-weighted mean bandwidth over [0, horizon].
func (tr *Trace) Mean(horizon float64) float64 {
	if horizon <= 0 {
		return tr.points[0].Mbps
	}
	var area, t float64
	for t < horizon {
		mbps, next := tr.Segment(t)
		if next > horizon {
			next = horizon
		}
		area += mbps * (next - t)
		if math.IsInf(next, 1) {
			break
		}
		t = next
	}
	return area / horizon
}

// Encode writes the trace as lines of "<time> <mbps>\n", the textual
// format used by the cmd tools. It is stable for round-tripping.
func (tr *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, p := range tr.points {
		if _, err := fmt.Fprintf(bw, "%g %g\n", p.T, p.Mbps); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses the format written by Encode. Blank lines and lines
// starting with '#' are ignored.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var pts []Point
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %w", lineNo, err)
		}
		m, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad bandwidth: %w", lineNo, err)
		}
		pts = append(pts, Point{T: t, Mbps: m})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(pts)
}
