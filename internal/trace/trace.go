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
// [i*interval, (i+1)*interval). interval must be positive. The points
// come out in time order by construction, so they are checked where
// they are made rather than copied and sorted by New.
func FromSteps(interval float64, mbps []float64) (*Trace, error) {
	if !(interval > 0) {
		return nil, errors.New("trace: interval must be positive")
	}
	if len(mbps) == 0 {
		return nil, errors.New("trace: need at least one step")
	}
	pts := make([]Point, len(mbps))
	for i, v := range mbps {
		pts[i] = Point{T: float64(i) * interval, Mbps: v}
		if !pts[i].valid() {
			return nil, fmt.Errorf("trace: invalid bandwidth %v at t=%v", v, pts[i].T)
		}
		if i > 0 && !(pts[i].T > pts[i-1].T) {
			return nil, fmt.Errorf("trace: interval %v does not advance time at step %d", interval, i)
		}
	}
	return &Trace{points: pts}, nil
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
	ps := tr.points
	if t <= ps[0].T {
		return ps[0].Mbps
	}
	// Binary search for the last point with T <= t.
	i := sort.Search(len(ps), func(i int) bool { return ps[i].T > t }) - 1
	return ps[i].Mbps
}

// NextChange returns the time of the first step strictly after t, or
// +Inf if the trace has no further steps. Emulators use this to integrate
// piecewise: the bandwidth is guaranteed constant on [t, NextChange(t)).
func (tr *Trace) NextChange(t float64) float64 {
	ps := tr.points
	i := sort.Search(len(ps), func(i int) bool { return ps[i].T > t })
	if i == len(ps) {
		return math.Inf(1)
	}
	return ps[i].T
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
		next := tr.NextChange(t)
		if next > horizon {
			next = horizon
		}
		area += tr.At(t) * (next - t)
		if math.IsInf(next, 1) {
			break
		}
		t = next
	}
	return area / horizon
}

// MinMax returns the smallest and largest step values.
func (tr *Trace) MinMax() (min, max float64) {
	min, max = tr.points[0].Mbps, tr.points[0].Mbps
	for _, p := range tr.points[1:] {
		if p.Mbps < min {
			min = p.Mbps
		}
		if p.Mbps > max {
			max = p.Mbps
		}
	}
	return min, max
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
