// Package abduction implements the Veritas framework proper (paper §3.2,
// §3.3): turning a session log into a posterior over latent ground-truth
// bandwidth (GTBW) traces, and using those traces to answer causal
// queries.
//
// The pipeline is: SessionLog → Observations (throughput, TCP state,
// size, start interval per chunk) → EHMM inference (Viterbi +
// forward–backward) → K posterior trace samples → counterfactual replay
// in the changed setting, or interventional download-time prediction.
package abduction

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"veritas/internal/hmm"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/trace"
)

// DefaultSamples is K, the number of posterior traces the paper draws
// per session; every layer's zero sample count means this.
const DefaultSamples = 5

// Config parameterizes abduction. Zero values take the paper's defaults.
type Config struct {
	// HMM configures the EHMM; if HMM.MaxMbps is zero the grid is sized
	// from the largest observed throughput (with headroom, since GTBW
	// is at least the observed throughput).
	HMM hmm.Config
	// NumSamples is K, the number of posterior traces (default
	// DefaultSamples).
	NumSamples int
	// Seed makes sampling deterministic.
	Seed int64
	// IgnoreTCPState ablates the paper's control variables: every
	// chunk's logged TCP state is replaced by a warm steady-state
	// connection, so the emission model no longer knows about slow-start
	// restart. Used by the ablation experiments to demonstrate why
	// conditioning on W_sn matters (paper §3.2's d-separation argument).
	IgnoreTCPState bool
	// FitTransitions, when positive, runs that many Baum–Welch EM
	// iterations on the interval chain to learn the transition matrix
	// from this session before inference (an extension beyond the
	// paper's fixed tridiagonal prior).
	FitTransitions int
	// Scratch, when set, is the reusable inference arena every buffer of
	// the abduction — observations, Viterbi path, posterior slabs,
	// sampled paths — is carved from, making repeat abductions through
	// the same arena allocation-flat. The returned Abduction then aliases
	// the arena and is valid only until the next Abduct with the same
	// Scratch (see hmm.Scratch); leave nil for results that must outlive
	// it. Not safe for concurrent use: one Scratch per goroutine.
	Scratch *hmm.Scratch
}

func (c Config) withDefaults(maxObservedMbps float64) Config {
	if c.HMM.MaxMbps == 0 {
		// Headroom: the latent GTBW can exceed every observation when
		// all chunks were below the BDP. 1.5× the max observation,
		// floored at 10 Mbps, covers the paper's regimes. A caller-set
		// estimator hook survives the default grid sizing.
		max := maxObservedMbps * 1.5
		if max < 10 {
			max = 10
		}
		est := c.HMM.Estimator
		c.HMM = hmm.DefaultConfig(max)
		c.HMM.Estimator = est
	}
	if c.NumSamples == 0 {
		c.NumSamples = DefaultSamples
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Abduction is the result of inverting a session log: the fitted model,
// the observation sequence, the Viterbi path, the posterior, and K
// sampled GTBW traces.
type Abduction struct {
	Model        *hmm.Model
	Observations []hmm.Observation
	ViterbiPath  []int
	Posterior    *hmm.Posterior
	SampledPaths [][]int

	log *player.SessionLog
	cfg Config

	// The estimate traces of Figure 6 are properties of the session, not
	// of a what-if arm: built on first use (Abduct stays trace-free for
	// interventional callers), then read by every Counterfactual and
	// SampleTraces. They are freshly allocated, never carved from
	// Config.Scratch — but they are built from Observations and
	// SampledPaths, so first use falls under the Scratch lifetime rule.
	tracesOnce  sync.Once
	baseline    *trace.Trace
	baselineErr error
	samples     []*trace.Trace

	// The jitter draws of its replays, one sequence per network seed,
	// likewise made on first use and then read by every replay of that
	// seed: a retained Abduction keeps them (a few thousand draws for a
	// 300-chunk session).
	jitterMu sync.Mutex
	jitters  []*netem.Jitter
}

// Observations converts a session log into the EHMM's evidence sequence.
// deltaSecs is the GTBW interval length δ.
func Observations(log *player.SessionLog, deltaSecs float64) ([]hmm.Observation, error) {
	return observationsInto(nil, log, deltaSecs, false)
}

// maxStartInterval bounds a chunk's start time in δ-intervals (a week
// at the paper's δ = 5 s). Inference takes A^Δn by a sequential walk of
// Δn matrix multiplications and the replay traces hold one value per
// interval, so an absurd start time in a log would otherwise walk — or
// allocate — for ever.
const maxStartInterval = 1 << 17

// maxEndSecs bounds a chunk's end time (a week): the Baseline trace
// holds one value per second up to the last End.
const maxEndSecs = 7 * 24 * 3600

// maxSizeBytes bounds a chunk's size: 256 MiB, sixty times a 4 s chunk
// of the top ladder rung. The throughput estimator runs one loop round
// per window of the payload for every capacity of the grid, so an
// absurd size would otherwise cost seconds per record.
const maxSizeBytes = 1 << 28

// checkRecords is where a log's numbers are checked, for Abduct and
// BaselineTrace alike. A log is outside input (`veritas abduct -log`, a
// fleet's SessionSpec.Log): a record whose throughput, size, start or
// end time is not a finite non-negative number, that ends before it
// starts or past maxEndSecs, or that starts before its predecessor is
// refused by index, before it can size a grid or a trace or turn a
// posterior into NaN. What only the estimator reads — the size's
// magnitude and the TCP state — observationsInto checks.
func checkRecords(log *player.SessionLog) error {
	if log == nil || len(log.Records) == 0 {
		return errors.New("abduction: empty session log")
	}
	for i, r := range log.Records {
		switch {
		case !finiteNonNegative(r.ThroughputMbps):
			return fmt.Errorf("abduction: record %d: throughput %v Mbps is not a finite non-negative number", i, r.ThroughputMbps)
		case !finiteNonNegative(r.SizeBytes):
			return fmt.Errorf("abduction: record %d: size %v bytes is not a finite non-negative number", i, r.SizeBytes)
		case !finiteNonNegative(r.Start):
			return fmt.Errorf("abduction: record %d: start time %v s is not a finite non-negative number", i, r.Start)
		case !(r.End >= r.Start):
			return fmt.Errorf("abduction: record %d: end time %v s is not a number at or after its start time %v s", i, r.End, r.Start)
		case !(r.End < maxEndSecs):
			return fmt.Errorf("abduction: record %d: end time %v s is past the %d s a log may span", i, r.End, maxEndSecs)
		case i > 0 && r.Start < log.Records[i-1].Start:
			return fmt.Errorf("abduction: record %d: start time %v s is before record %d's %v s", i, r.Start, i-1, log.Records[i-1].Start)
		}
	}
	return nil
}

// observationsInto is Observations with an optional arena: with a
// scratch it fills the arena's reusable observation buffer instead of
// allocating. With ignoreTCP every record's TCP state is replaced by a
// warm steady-state connection (Config.IgnoreTCPState). A record whose
// size is past maxSizeBytes, or whose state as the estimator will see
// it fails tcp.State.CheckEstimable, is refused by index.
func observationsInto(sc *hmm.Scratch, log *player.SessionLog, deltaSecs float64, ignoreTCP bool) ([]hmm.Observation, error) {
	if deltaSecs <= 0 {
		return nil, fmt.Errorf("abduction: delta %v <= 0", deltaSecs)
	}
	if err := checkRecords(log); err != nil {
		return nil, err
	}
	var obs []hmm.Observation
	if sc != nil {
		obs = sc.Observations(len(log.Records))
	} else {
		obs = make([]hmm.Observation, len(log.Records))
	}
	for i, r := range log.Records {
		interval := r.Start / deltaSecs
		if !(interval < maxStartInterval) {
			return nil, fmt.Errorf("abduction: record %d: start time %v s is past interval %d of %v s", i, r.Start, maxStartInterval, deltaSecs)
		}
		if r.SizeBytes > maxSizeBytes {
			return nil, fmt.Errorf("abduction: record %d: size %v bytes is past the %d bytes a chunk may carry", i, r.SizeBytes, maxSizeBytes)
		}
		st := r.TCP
		if ignoreTCP {
			st = tcp.Fresh(st.MinRTT)
			st.CWND = tcp.DefaultSSThresh // window never the bottleneck
			st.LastSendGap = 0            // no slow-start restart
		}
		if err := st.CheckEstimable(); err != nil {
			return nil, fmt.Errorf("abduction: record %d: %w", i, err)
		}
		obs[i] = hmm.Observation{
			ThroughputMbps: r.ThroughputMbps,
			TCP:            st,
			SizeBytes:      r.SizeBytes,
			StartInterval:  int(interval),
		}
	}
	return obs, nil
}

func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Abduct runs the full abduction: model fit-free inference (the EHMM's
// parameters are the paper's fixed hyperparameters; no EM is needed)
// plus posterior sampling.
func Abduct(log *player.SessionLog, cfg Config) (*Abduction, error) {
	if log == nil || len(log.Records) == 0 {
		return nil, errors.New("abduction: empty session log")
	}
	maxObs, maxAt := 0.0, 0
	for i, r := range log.Records {
		if r.ThroughputMbps > maxObs {
			maxObs, maxAt = r.ThroughputMbps, i
		}
	}
	sized := cfg.HMM.MaxMbps == 0 // the grid is sized from record maxAt
	cfg = cfg.withDefaults(maxObs)

	obs, err := observationsInto(cfg.Scratch, log, cfg.HMM.DeltaSecs, cfg.IgnoreTCPState)
	if err != nil {
		return nil, err
	}
	model, err := hmm.New(cfg.HMM)
	if err != nil {
		if sized {
			return nil, fmt.Errorf("abduction: record %d: throughput %v Mbps sizes the capacity grid: %w", maxAt, maxObs, err)
		}
		return nil, err
	}
	model.SetScratch(cfg.Scratch)
	if cfg.FitTransitions > 0 {
		fit, err := model.FitTransitions(obs, cfg.FitTransitions, 0.1)
		if err != nil {
			return nil, fmt.Errorf("abduction: transition fit: %w", err)
		}
		model = fit.Model
	}
	// One Infer computes the gap vector and the log-emission table (the
	// dominant estimator work) once and shares them across Viterbi,
	// forward–backward and the K samples.
	inf, err := model.Infer(obs, cfg.NumSamples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Abduction{
		Model:        model,
		Observations: obs,
		ViterbiPath:  inf.Path,
		Posterior:    inf.Post,
		SampledPaths: inf.Samples,
		log:          log,
		cfg:          cfg,
	}, nil
}

// Log returns the session log the abduction was built from.
func (a *Abduction) Log() *player.SessionLog { return a.log }

// ConfigUsed returns the (defaulted) configuration.
func (a *Abduction) ConfigUsed() Config { return a.cfg }

// MostLikelyTrace returns the GTBW trace implied by the Viterbi path.
func (a *Abduction) MostLikelyTrace() *trace.Trace {
	return a.pathToTrace(a.ViterbiPath)
}

// SampleTraces returns the K posterior traces, interpolated onto the
// δ grid (paper: "intermediate values are interpolated from sampled
// C_s1:N"). Every call returns the same traces; do not modify the slice.
func (a *Abduction) SampleTraces() []*trace.Trace {
	a.tracesOnce.Do(a.buildTraces)
	return a.samples
}

// buildTraces builds the session's estimate traces: the K sample traces
// and the Baseline trace.
func (a *Abduction) buildTraces() {
	a.samples = make([]*trace.Trace, len(a.SampledPaths))
	for i, p := range a.SampledPaths {
		a.samples[i] = a.pathToTrace(p)
	}
	a.baseline, a.baselineErr = BaselineTrace(a.log)
}

// pathToTrace expands per-chunk states into a per-interval trace:
// intervals carrying one or more chunk starts take (the mean of) those
// chunks' capacities; intervals between chunk starts are linearly
// interpolated and re-quantized to the ε grid; leading/trailing
// intervals hold the nearest inferred value.
func (a *Abduction) pathToTrace(path []int) *trace.Trace {
	eps := a.cfg.HMM.EpsMbps
	// Observations are in interval order (Infer refuses any other).
	first := a.Observations[0].StartInterval
	last := a.Observations[len(a.Observations)-1].StartInterval
	// Pad beyond the final chunk so replays that run longer (e.g. more
	// rebuffering in Setting B) still see defined bandwidth; Trace.At
	// holds the last value beyond the end anyway.
	vals := make([]float64, last+2)
	counts := make([]int, len(vals)) // chunk starts per interval

	for i, o := range a.Observations {
		// Multiple chunks start in one interval ("zero, one or more
		// observations per hidden state"): average their draws.
		idx := o.StartInterval
		vals[idx] = (vals[idx]*float64(counts[idx]) + a.Model.Capacity(path[i])) / float64(counts[idx]+1)
		counts[idx]++
	}

	// Extend the edges; interpolate the gaps between intervals that
	// carry a chunk start.
	for i := 0; i < first; i++ {
		vals[i] = vals[first]
	}
	vals[last+1] = vals[last]
	prev := first
	for i := first + 1; i <= last; i++ {
		if counts[i] == 0 {
			continue
		}
		for j := prev + 1; j < i; j++ {
			t := float64(j-prev) / float64(i-prev)
			v := vals[prev] + (vals[i]-vals[prev])*t
			vals[j] = math.Round(v/eps) * eps
		}
		prev = i
	}

	tr, err := trace.FromSteps(a.cfg.HMM.DeltaSecs, vals)
	if err != nil {
		panic(fmt.Sprintf("abduction: internal trace construction failed: %v", err))
	}
	return tr
}

// PredictDownloadTime answers the interventional query of §4.4: the
// predicted download time for a hypothetical next chunk of the given
// size starting at startSecs with TCP state st. It takes the Viterbi
// state of the last observed chunk, advances it through the transition
// matrix by the elapsed δ-intervals to get the expected GTBW, and runs
// the estimator f.
func (a *Abduction) PredictDownloadTime(startSecs float64, st tcp.State, sizeBytes float64) float64 {
	lastObs := a.Observations[len(a.Observations)-1]
	lastState := a.ViterbiPath[len(a.ViterbiPath)-1]
	gap := int(startSecs/a.cfg.HMM.DeltaSecs) - lastObs.StartInterval
	if gap < 0 {
		gap = 0
	}
	gtbw := a.Model.ExpectedCapacityAfter(lastState, gap)
	return tcp.EstimateDownloadTime(gtbw, st, sizeBytes)
}
