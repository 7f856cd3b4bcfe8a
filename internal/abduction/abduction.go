// Package abduction implements the Veritas framework proper (paper §3.2,
// §3.3): turning a session log into a posterior over latent ground-truth
// bandwidth (GTBW) traces, and using those traces to answer causal
// queries.
//
// The pipeline is: SessionLog → Observations (throughput, TCP state,
// size, start interval per chunk) → EHMM inference (one forward pass:
// the Viterbi recursion and α) → K posterior trace samples drawn
// backward from α → counterfactual replay in the changed setting, or
// interventional download-time prediction.
package abduction

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"veritas/internal/hmm"
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
	// the abduction — observations, the forward pass's α slab, sampled
	// paths — is carved from, making repeat abductions through
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
// the observation sequence and K sampled GTBW paths, drawn from the
// forward pass's α (hmm.Model.Infer), plus the Viterbi state of the last
// chunk, which PredictDownloadTime reads. Nothing else of the inference
// is kept: no posterior marginals, and no Viterbi path until
// MostLikelyTrace asks for one. Its replays read their jitter from the
// process's one draw sequence per network seed (see player.Replay), so
// an Abduction holds no jitter of its own.
type Abduction struct {
	Model        *hmm.Model
	Observations []hmm.Observation
	SampledPaths [][]int

	log  *player.SessionLog
	cfg  Config
	last int // the Viterbi state of the last chunk

	// The Viterbi path, built on the first MostLikelyTrace on slabs of
	// its own (hmm.Model.ViterbiPath), so no arena holds it.
	pathOnce sync.Once
	path     []int

	// The estimate traces of Figure 6 are properties of the session, not
	// of a what-if arm: built on first use (Abduct stays trace-free for
	// interventional callers), then read by every Counterfactual and
	// SampleTraces. Their points share one slab: the Arena's when an
	// Arena made the Abduction, else freshly allocated — but they are
	// built from Observations and SampledPaths, so first use falls under
	// the Scratch lifetime rule either way.
	tracesOnce  sync.Once
	baseline    *trace.Trace
	baselineErr error
	samples     []*trace.Trace

	// The arena that made the Abduction, if any, and its Abduct count
	// then: the Abduction's storage is its own while they agree.
	arena *Arena
	epoch uint64
}

// Observations converts a session log into the EHMM's evidence sequence.
// deltaSecs is the GTBW interval length δ.
func Observations(log *player.SessionLog, deltaSecs float64) ([]hmm.Observation, error) {
	if err := checkObservations(log, deltaSecs, false); err != nil {
		return nil, err
	}
	return observationsInto(nil, log, deltaSecs, false), nil
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
// of the top ladder rung. A log or a query is outside input, and no
// real chunk is larger: a size past it is a corrupt or hostile value,
// refused by index before it reaches the estimator or a report.
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

// checkObservations refuses, by index, a log whose records
// checkRecords refuses or that observation cannot convert.
func checkObservations(log *player.SessionLog, deltaSecs float64, ignoreTCP bool) error {
	if deltaSecs <= 0 {
		return fmt.Errorf("abduction: delta %v <= 0", deltaSecs)
	}
	if err := checkRecords(log); err != nil {
		return err
	}
	for i, r := range log.Records {
		if _, err := observation(i, r, deltaSecs, ignoreTCP); err != nil {
			return err
		}
	}
	return nil
}

// observationsInto converts a log that passed checkObservations: into
// the arena's reusable observation buffer with a scratch, else into a
// fresh slice.
func observationsInto(sc *hmm.Scratch, log *player.SessionLog, deltaSecs float64, ignoreTCP bool) []hmm.Observation {
	var obs []hmm.Observation
	if sc != nil {
		obs = sc.Observations(len(log.Records))
	} else {
		obs = make([]hmm.Observation, len(log.Records))
	}
	for i, r := range log.Records {
		obs[i], _ = observation(i, r, deltaSecs, ignoreTCP) // checked
	}
	return obs
}

// observation converts record i into the EHMM's evidence. With
// ignoreTCP its TCP state is replaced by a warm steady-state connection
// (Config.IgnoreTCPState). A record that checkChunk refuses, its state
// as the estimator will see it, is refused by index.
func observation(i int, r player.ChunkRecord, deltaSecs float64, ignoreTCP bool) (hmm.Observation, error) {
	st := r.TCP
	if ignoreTCP {
		st = tcp.Fresh(st.MinRTT)
		st.CWND = tcp.DefaultSSThresh // window never the bottleneck
		st.LastSendGap = 0            // no slow-start restart
	}
	if err := checkChunk(r.Start, r.SizeBytes, deltaSecs, st); err != nil {
		return hmm.Observation{}, fmt.Errorf("abduction: record %d: %w", i, err)
	}
	return hmm.Observation{
		ThroughputMbps: r.ThroughputMbps,
		TCP:            st,
		SizeBytes:      r.SizeBytes,
		StartInterval:  int(r.Start / deltaSecs),
	}, nil
}

// checkChunk is the rule a record and an interventional query share,
// past the finite non-negative start and size their callers check: a
// start past maxStartInterval δ-intervals, a size past maxSizeBytes, or
// a TCP state that fails tcp.State.CheckEstimable is refused.
func checkChunk(startSecs, sizeBytes, deltaSecs float64, st tcp.State) error {
	if !(startSecs/deltaSecs < maxStartInterval) {
		return fmt.Errorf("start time %v s is past interval %d of %v s", startSecs, maxStartInterval, deltaSecs)
	}
	if sizeBytes > maxSizeBytes {
		return fmt.Errorf("size %v bytes is past the %d bytes a chunk may carry", sizeBytes, maxSizeBytes)
	}
	return st.CheckEstimable()
}

// CheckQuery refuses an interventional query — a hypothetical chunk of
// sizeBytes starting at startSecs with TCP state st, as
// PredictDownloadTime takes it — by the rule a log's records are
// checked by: a start or size that is not a finite non-negative number,
// or one checkChunk refuses at c's δ. The state is checked as given:
// IgnoreTCPState replaces only the log's states.
func (c Config) CheckQuery(startSecs float64, st tcp.State, sizeBytes float64) error {
	switch {
	case !finiteNonNegative(startSecs):
		return fmt.Errorf("abduction: start time %v s is not a finite non-negative number", startSecs)
	case !finiteNonNegative(sizeBytes):
		return fmt.Errorf("abduction: size %v bytes is not a finite non-negative number", sizeBytes)
	}
	if err := checkChunk(startSecs, sizeBytes, c.withDefaults(0).HMM.DeltaSecs, st); err != nil {
		return fmt.Errorf("abduction: %w", err)
	}
	return nil
}

func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Abduct runs the full abduction: model fit-free inference (the EHMM's
// parameters are the paper's fixed hyperparameters; no EM is needed)
// plus posterior sampling.
func Abduct(log *player.SessionLog, cfg Config) (*Abduction, error) {
	cfg, obs, model, err := prepare(log, cfg, true)
	if err != nil {
		return nil, err
	}
	// One Infer evaluates each chunk's emission row (the dominant
	// estimator work) once, for the Viterbi recursion and α alike, and
	// draws the K samples from α.
	inf, err := model.Infer(obs, cfg.NumSamples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Abduction{
		Model:        model,
		Observations: obs,
		SampledPaths: inf.Samples,
		log:          log,
		cfg:          cfg,
		last:         inf.Last,
	}, nil
}

// prepare is Abduct's preamble, which NewPredictor shares: it checks the
// log, sizes the capacity grid from its largest throughput unless cfg
// sets one, builds the model on cfg.Scratch and, with FitTransitions,
// fits the transition matrix to the log. The observations are returned
// (in cfg.Scratch's buffer when set) when keep is set or the fit read
// them, and are nil otherwise.
func prepare(log *player.SessionLog, cfg Config, keep bool) (Config, []hmm.Observation, *hmm.Model, error) {
	if log == nil || len(log.Records) == 0 {
		return cfg, nil, nil, errors.New("abduction: empty session log")
	}
	maxObs, maxAt := 0.0, 0
	for i, r := range log.Records {
		if r.ThroughputMbps > maxObs {
			maxObs, maxAt = r.ThroughputMbps, i
		}
	}
	sized := cfg.HMM.MaxMbps == 0 // the grid is sized from record maxAt
	cfg = cfg.withDefaults(maxObs)

	if err := checkObservations(log, cfg.HMM.DeltaSecs, cfg.IgnoreTCPState); err != nil {
		return cfg, nil, nil, err
	}
	var obs []hmm.Observation
	if keep || cfg.FitTransitions > 0 {
		obs = observationsInto(cfg.Scratch, log, cfg.HMM.DeltaSecs, cfg.IgnoreTCPState)
	}
	model, err := hmm.New(cfg.HMM)
	if err != nil {
		if sized {
			return cfg, nil, nil, fmt.Errorf("abduction: record %d: throughput %v Mbps sizes the capacity grid: %w", maxAt, maxObs, err)
		}
		return cfg, nil, nil, err
	}
	model.SetScratch(cfg.Scratch)
	if cfg.FitTransitions > 0 {
		fit, err := model.FitTransitions(obs, cfg.FitTransitions, 0.1)
		if err != nil {
			return cfg, nil, nil, fmt.Errorf("abduction: transition fit: %w", err)
		}
		model = fit.Model
	}
	return cfg, obs, model, nil
}

// ConfigUsed returns the (defaulted) configuration.
func (a *Abduction) ConfigUsed() Config { return a.cfg }

// MostLikelyTrace returns the GTBW trace implied by the Viterbi path,
// which the first call builds (Abduct keeps only its last state). The
// trace is freshly allocated, and the caller's.
func (a *Abduction) MostLikelyTrace() *trace.Trace {
	a.mustBeLive()
	a.pathOnce.Do(func() {
		var err error
		if a.path, _, err = a.Model.ViterbiPath(a.Observations); err != nil {
			panic(fmt.Sprintf("abduction: Viterbi path of abducted observations: %v", err))
		}
	})
	n := a.pathPoints()
	return a.pathToTrace(a.path, make([]trace.Point, n), make([]int, n))
}

// SampleTraces returns the K posterior traces, interpolated onto the
// δ grid (paper: "intermediate values are interpolated from sampled
// C_s1:N"). Every call returns the same traces; do not modify the slice.
// The traces of an Abduction an Arena made are valid only until that
// Arena's next Abduct.
func (a *Abduction) SampleTraces() []*trace.Trace {
	a.mustBeLive()
	a.tracesOnce.Do(a.buildTraces)
	return a.samples
}

// buildTraces builds the session's estimate traces, the K sample traces
// and the Baseline trace, over one slab of points (traceStorage). The
// log passed Abduct's checks; the Baseline checks it again, as
// BaselineTrace does, before its size is trusted.
func (a *Abduction) buildTraces() {
	k, n := len(a.SampledPaths), a.pathPoints()
	nb := 0
	if a.baselineErr = checkRecords(a.log); a.baselineErr == nil {
		nb = baselinePoints(a.log)
	}
	pts, counts := a.traceStorage(k, n, nb)
	a.samples = make([]*trace.Trace, k)
	for i, p := range a.SampledPaths {
		a.samples[i] = a.pathToTrace(p, pts[i*n:(i+1)*n:(i+1)*n], counts)
	}
	if a.baselineErr == nil {
		a.baseline, a.baselineErr = baselineInto(pts[k*n:], a.log)
	}
}

// pathPoints is the step count of a path's trace: one per δ-interval
// through the last chunk start's, plus one of padding beyond the final
// chunk so replays that run longer (e.g. more rebuffering in Setting B)
// still see defined bandwidth; Trace.At holds the last value beyond the
// end anyway.
func (a *Abduction) pathPoints() int {
	return a.Observations[len(a.Observations)-1].StartInterval + 2
}

// pathToTrace expands per-chunk states into a per-interval trace over
// pts (pathPoints long; the trace keeps it), using counts (as long) as
// its per-interval tally: intervals carrying one or more chunk starts
// take (the mean of) those chunks' capacities; intervals between chunk
// starts are linearly interpolated and re-quantized to the ε grid;
// leading/trailing intervals hold the nearest inferred value. Both
// buffers may hold anything on entry.
func (a *Abduction) pathToTrace(path []int, pts []trace.Point, counts []int) *trace.Trace {
	eps := a.cfg.HMM.EpsMbps
	// Observations are in interval order (Infer refuses any other).
	first := a.Observations[0].StartInterval
	last := a.Observations[len(a.Observations)-1].StartInterval
	clear(pts)
	clear(counts) // chunk starts per interval

	for i, o := range a.Observations {
		// Multiple chunks start in one interval ("zero, one or more
		// observations per hidden state"): average their draws.
		idx := o.StartInterval
		pts[idx].Mbps = (pts[idx].Mbps*float64(counts[idx]) + a.Model.Capacity(path[i])) / float64(counts[idx]+1)
		counts[idx]++
	}

	// Extend the edges; interpolate the gaps between intervals that
	// carry a chunk start.
	for i := 0; i < first; i++ {
		pts[i].Mbps = pts[first].Mbps
	}
	pts[last+1].Mbps = pts[last].Mbps
	prev := first
	for i := first + 1; i <= last; i++ {
		if counts[i] == 0 {
			continue
		}
		for j := prev + 1; j < i; j++ {
			t := float64(j-prev) / float64(i-prev)
			v := pts[prev].Mbps + (pts[i].Mbps-pts[prev].Mbps)*t
			pts[j].Mbps = math.Round(v/eps) * eps
		}
		prev = i
	}

	tr, err := trace.FromPoints(a.cfg.HMM.DeltaSecs, pts)
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
// the estimator f. A Predictor computes the same answer from that state
// alone.
//
// The advance takes O(gap·S·band) time for a start gap δ-intervals past
// the last chunk, on an S-state grid whose transition matrix has rows
// band states wide, and touches no shared state (hmm's
// ExpectedCapacityAfter). The query must pass the Config's CheckQuery
// (engine.Run refuses one that does not), which bounds the gap. Outside
// it the answer is unspecified, and the estimator need not return on a
// negative window.
func (a *Abduction) PredictDownloadTime(startSecs float64, st tcp.State, sizeBytes float64) float64 {
	a.mustBeLive()
	last := a.Observations[len(a.Observations)-1].StartInterval
	return predictDownloadTime(a.Model, a.cfg.HMM.DeltaSecs, last, a.last, startSecs, st, sizeBytes)
}

// predictDownloadTime is the arithmetic of the interventional query,
// for Abduction and Predictor alike: state is the Viterbi state of the
// last chunk, which started in δ-interval lastInterval; it is advanced
// by the intervals from there to startSecs (none if startSecs is
// earlier), and the estimator runs at the expected GTBW.
func predictDownloadTime(m *hmm.Model, deltaSecs float64, lastInterval, state int, startSecs float64, st tcp.State, sizeBytes float64) float64 {
	gap := int(startSecs/deltaSecs) - lastInterval
	if gap < 0 {
		gap = 0
	}
	gtbw := m.ExpectedCapacityAfter(state, gap)
	return tcp.EstimateDownloadTime(gtbw, st, sizeBytes)
}
