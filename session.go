package veritas

// The session layer: simulate one streaming session, invert its log
// into a posterior over latent bandwidth, and answer counterfactual and
// interventional queries about it. Batch work over corpora of sessions
// lives in campaign.go.

import (
	"errors"

	"veritas/internal/abduction"
	"veritas/internal/abr"
	"veritas/internal/engine"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// Core types re-exported from the implementation packages. The aliases
// are intentional: values flow freely between the facade and the
// internal packages used by cmd tools and experiments.
type (
	// Trace is a piecewise-constant bandwidth time series in Mbps.
	Trace = trace.Trace
	// TraceConfig parameterizes the synthetic FCC-like trace generator.
	TraceConfig = trace.GenConfig
	// SessionLog is what a deployed system records for one session.
	SessionLog = player.SessionLog
	// ChunkRecord is one chunk's log line (size, times, TCP state, ...).
	ChunkRecord = player.ChunkRecord
	// Metrics summarizes session quality (SSIM, rebuffering, bitrate).
	Metrics = player.Metrics
	// ABR chooses the next chunk's quality.
	ABR = abr.Algorithm
	// Video holds per-chunk, per-quality sizes and SSIMs.
	Video = video.Video
	// Quality is one rung of an encoding ladder.
	Quality = video.Quality
	// NetworkConfig describes the emulated path.
	NetworkConfig = netem.Config
	// TCPState is the transport control state logged at chunk starts.
	TCPState = tcp.State
	// AbductionConfig parameterizes GTBW inference.
	AbductionConfig = abduction.Config
	// Abduction is the inferred posterior over GTBW traces. Its
	// PredictDownloadTime method answers the interventional query of
	// the paper's §4.4: the expected download time of a hypothetical
	// chunk, given everything the abduction learned from the session.
	Abduction = abduction.Abduction
)

// DefaultTraceConfig returns the paper's counterfactual-evaluation
// bandwidth regime: 3–8 Mbps FCC-like traces with 5 s steps.
func DefaultTraceConfig(seed int64) TraceConfig { return trace.DefaultFCC(seed) }

// GenerateTrace produces one synthetic bandwidth trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// GenerateTraceSet produces n traces with consecutive seeds.
func GenerateTraceSet(cfg TraceConfig, n int) ([]*Trace, error) {
	return trace.GenerateSet(cfg, n)
}

// TraceRegimes returns the names of the synthetic bandwidth regimes the
// trace generator knows ("fcc", "lte", "wifi"). Campaign scenarios (see
// Scenarios) are these plus the square-wave process.
func TraceRegimes() []string { return trace.Regimes() }

// NewMPC returns the RobustMPC algorithm (the paper's deployed ABR).
func NewMPC() ABR { return abr.NewMPC() }

// NewBBA returns the buffer-based algorithm.
func NewBBA() ABR { return abr.NewBBA() }

// NewBOLA returns BOLA Basic.
func NewBOLA() ABR { return abr.NewBOLA() }

// NewABR returns a fresh instance of the algorithm WithMatrix knows by
// name; the error of an unknown name lists ABRs().
func NewABR(name string) (ABR, error) { return engine.NewABR(name) }

// NewRandomABR returns an algorithm choosing qualities uniformly at
// random (used to build off-policy evaluation sets).
func NewRandomABR(seed int64) ABR { return abr.NewRandom(seed) }

// NewFixedABR always picks the given ladder rung.
func NewFixedABR(quality int) ABR { return &abr.Fixed{Quality: quality} }

// DefaultVideo synthesizes the 10-minute clip used across the paper's
// experiments (ladder 0.1–4 Mbps, SSIM anchors 0.908/0.986). Seed 1 —
// the clip every nil Video defaults to — is synthesised once per
// process and shared (a Video is immutable); other seeds synthesise on
// every call.
func DefaultVideo(seed int64) *Video {
	if seed == 1 {
		return video.Default()
	}
	return video.MustSynthesize(video.DefaultConfig(seed))
}

// HigherQualityVideo synthesizes the same content on the Figure 11
// "higher qualities" ladder (2.7–8 Mbps).
func HigherQualityVideo(seed int64) *Video {
	cfg := video.DefaultConfig(seed)
	cfg.Ladder = video.HigherLadder()
	return video.MustSynthesize(cfg)
}

// DefaultNetwork returns the emulated testbed path: 160 ms RTT,
// slow-start restart, droptail loss, mild jitter.
func DefaultNetwork() NetworkConfig { return netem.DefaultConfig() }

// SessionConfig describes a streaming session to simulate. Video and
// Net default to DefaultVideo(1) and DefaultNetwork; BufferCap defaults
// to player.DefaultBufferCap, the paper's deployed buffer.
type SessionConfig struct {
	Trace     *Trace
	ABR       ABR
	Video     *Video
	Net       *NetworkConfig
	BufferCap float64
	MaxChunks int
}

// Session is a finished simulated session.
type Session struct {
	Log     *SessionLog
	Metrics Metrics
}

// RunSession simulates one video session over the trace and returns its
// log (the observables a deployed system would record) and metrics.
func RunSession(cfg SessionConfig) (*Session, error) {
	if cfg.Trace == nil {
		return nil, errors.New("veritas: SessionConfig.Trace is required")
	}
	if cfg.ABR == nil {
		return nil, errors.New("veritas: SessionConfig.ABR is required")
	}
	if cfg.Video == nil {
		cfg.Video = DefaultVideo(1)
	}
	net := netem.DefaultConfig()
	if cfg.Net != nil {
		net = *cfg.Net
	}
	if cfg.BufferCap == 0 {
		cfg.BufferCap = player.DefaultBufferCap
	}
	log, m, err := player.Run(player.Config{
		Video:     cfg.Video,
		ABR:       cfg.ABR,
		Trace:     cfg.Trace,
		Net:       net,
		BufferCap: cfg.BufferCap,
		MaxChunks: cfg.MaxChunks,
	})
	if err != nil {
		return nil, err
	}
	return &Session{Log: log, Metrics: m}, nil
}

// Abduct inverts a session log into a posterior over latent GTBW
// traces: the Veritas abduction step. A zero AbductionConfig uses the
// paper's hyperparameters (δ=5 s, ε=0.5 Mbps, σ=0.5,
// K=abduction.DefaultSamples samples).
func Abduct(log *SessionLog, cfg AbductionConfig) (*Abduction, error) {
	return abduction.Abduct(log, cfg)
}

// Baseline builds the comparison estimator the paper evaluates against:
// observed per-chunk throughput held over each download and linearly
// interpolated across off-periods.
func Baseline(log *SessionLog) (*Trace, error) {
	return abduction.BaselineTrace(log)
}

// WhatIf describes a counterfactual "Setting B". NewABR is a factory
// because algorithms carry per-session state. Video defaults to
// DefaultVideo(1), Net to DefaultNetwork, BufferCap to
// player.DefaultBufferCap.
type WhatIf struct {
	NewABR    func() ABR
	Video     *Video
	Net       *NetworkConfig
	BufferCap float64
}

func (w WhatIf) setting() (abduction.Setting, error) {
	if w.NewABR == nil {
		return abduction.Setting{}, errors.New("veritas: WhatIf.NewABR is required")
	}
	v := w.Video
	if v == nil {
		v = DefaultVideo(1)
	}
	net := netem.DefaultConfig()
	if w.Net != nil {
		net = *w.Net
	}
	buf := w.BufferCap
	if buf == 0 {
		buf = player.DefaultBufferCap
	}
	return abduction.Setting{
		Video:     v,
		NewABR:    w.NewABR,
		BufferCap: buf,
		Net:       net,
	}, nil
}

// Outcome is the answer to a counterfactual query: the metrics the
// changed design achieves under the Baseline estimate and under each of
// Veritas's posterior GTBW samples. Its SSIMRange, RebufRange and
// BitrateRange methods give the Veritas (Low, High) range the paper
// reports: the second-lowest and second-highest sample outcomes.
type Outcome = abduction.CounterfactualOutcome

// Counterfactual answers "what would this session's quality have been
// under the changed design?" by replaying the what-if setting over the
// Baseline trace and every Veritas posterior sample.
func Counterfactual(abd *Abduction, w WhatIf) (*Outcome, error) {
	setting, err := w.setting()
	if err != nil {
		return nil, err
	}
	return abd.Counterfactual(setting)
}

// Oracle replays the what-if setting over the true GTBW trace — the
// ideal benchmark available only in emulation, where the ground truth
// is known.
func Oracle(gt *Trace, w WhatIf) (Metrics, error) {
	setting, err := w.setting()
	if err != nil {
		return Metrics{}, err
	}
	return abduction.Replay(gt, setting)
}
