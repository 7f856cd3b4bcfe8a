package abduction

import (
	"errors"
	"sort"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// Setting describes the counterfactual "Setting B" a session is replayed
// under: which video (quality ladder), which ABR, which buffer size,
// over which emulated path.
type Setting struct {
	Video *video.Video
	// NewABR constructs a fresh algorithm instance per replay, since
	// algorithms carry per-session state.
	NewABR    func() abr.Algorithm
	BufferCap float64
	Net       netem.Config
}

// Validate reports the first problem with the setting, if any.
func (s Setting) Validate() error {
	if s.Video == nil {
		return errors.New("abduction: setting has nil video")
	}
	if s.NewABR == nil {
		return errors.New("abduction: setting has nil ABR factory")
	}
	return nil
}

// Replay runs a full session under the setting over the given bandwidth
// trace and returns its metrics. This is the "emulate the video session
// in Setting B" step of Figure 6.
func Replay(tr *trace.Trace, s Setting) (player.Metrics, error) {
	return replay(tr, s, nil)
}

// Replay is the package's Replay reading its jitter from the draw
// sequence this Abduction keeps for s.Net.Seed — the one every
// Counterfactual replay of that seed reads — instead of seeding a
// generator of its own. The metrics are the same. Safe for concurrent
// use.
func (a *Abduction) Replay(tr *trace.Trace, s Setting) (player.Metrics, error) {
	return replay(tr, s, a.jitter(s.Net.Seed))
}

func replay(tr *trace.Trace, s Setting, j *netem.Jitter) (player.Metrics, error) {
	if err := s.Validate(); err != nil {
		return player.Metrics{}, err
	}
	return player.Replay(player.Config{
		Video:     s.Video,
		ABR:       s.NewABR(),
		Trace:     tr,
		Net:       s.Net,
		BufferCap: s.BufferCap,
	}, j)
}

// jitter returns the Abduction's draw sequence for seed, made on first
// use. A session's replays almost always share one seed (the default
// path's), so a short list serves.
func (a *Abduction) jitter(seed int64) *netem.Jitter {
	a.jitterMu.Lock()
	defer a.jitterMu.Unlock()
	for _, j := range a.jitters {
		if j.Seed() == seed {
			return j
		}
	}
	j := netem.NewJitter(seed)
	a.jitters = append(a.jitters, j)
	return j
}

// CounterfactualOutcome collects the replay results for one session and
// one what-if setting, across the estimators the paper compares.
type CounterfactualOutcome struct {
	// Baseline is the replay over the Baseline throughput trace.
	Baseline player.Metrics
	// Samples are the replays over each of Veritas's K posterior traces.
	Samples []player.Metrics
}

// SSIMRange returns the Veritas (Low, High) range for average SSIM —
// the second-lowest and second-highest sample outcomes, as the paper
// reports.
func (o *CounterfactualOutcome) SSIMRange() (low, high float64) {
	return VeritasRange(o.Samples, MetricSSIM)
}

// RebufRange returns the Veritas (Low, High) range for the rebuffering
// ratio.
func (o *CounterfactualOutcome) RebufRange() (low, high float64) {
	return VeritasRange(o.Samples, MetricRebufRatio)
}

// BitrateRange returns the Veritas (Low, High) range for average
// bitrate in Mbps.
func (o *CounterfactualOutcome) BitrateRange() (low, high float64) {
	return VeritasRange(o.Samples, MetricAvgBitrate)
}

// Counterfactual replays the what-if setting over the session's Baseline
// trace and every Veritas sample trace, all reading one jitter sequence
// (see Abduction.Replay). (The oracle replay over the true GTBW is the
// caller's job, since only the experiment harness holds the ground
// truth.)
func (a *Abduction) Counterfactual(s Setting) (*CounterfactualOutcome, error) {
	a.tracesOnce.Do(a.buildTraces)
	if a.baselineErr != nil {
		return nil, a.baselineErr
	}
	j := a.jitter(s.Net.Seed)
	baseM, err := replay(a.baseline, s, j)
	if err != nil {
		return nil, err
	}
	out := &CounterfactualOutcome{Baseline: baseM, Samples: make([]player.Metrics, len(a.samples))}
	for i, tr := range a.samples {
		if out.Samples[i], err = replay(tr, s, j); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MetricFn extracts one scalar from session metrics (SSIM, rebuffering
// ratio, average bitrate, ...).
type MetricFn func(player.Metrics) float64

// Standard metric extractors for reporting.
var (
	MetricSSIM       MetricFn = func(m player.Metrics) float64 { return m.AvgSSIM }
	MetricRebufRatio MetricFn = func(m player.Metrics) float64 { return m.RebufRatio }
	MetricAvgBitrate MetricFn = func(m player.Metrics) float64 { return m.AvgBitrateMbps }
)

// VeritasRange summarizes the spread of a metric across the K sample
// replays the way the paper reports it: the second-lowest and
// second-highest values ("Veritas (Low)" and "Veritas (High)"). With
// fewer than three samples it degrades to min/max.
func VeritasRange(samples []player.Metrics, f MetricFn) (low, high float64) {
	vals := make([]float64, len(samples))
	for i, m := range samples {
		vals[i] = f(m)
	}
	sort.Float64s(vals)
	switch {
	case len(vals) == 0:
		return 0, 0
	case len(vals) <= 2:
		return vals[0], vals[len(vals)-1]
	default:
		return vals[1], vals[len(vals)-2]
	}
}
