// Package netem emulates a video client's TCP connection over a
// time-varying bottleneck link — the role Mahimahi plays in the paper's
// testbed. It is the ground truth every experiment runs against: the
// emulator tracks congestion-window state across chunk downloads,
// applies slow-start restart after idle gaps, and integrates the
// piecewise-constant ground-truth bandwidth (GTBW) trace round by round.
//
// The model deliberately shares its mechanics with the paper's estimator
// f (internal/tcp): transmission proceeds in RTT-sized rounds carrying
// min(cwnd, BDP) segments. The emulator is richer than f in exactly the
// ways the paper describes: the GTBW may change during a download, the
// congestion window persists across chunks, and optional jitter models
// queueing/cross-traffic noise. The residual gap between the emulator
// and f is what Figure 5 of the paper measures.
//
// Jitter is one standard-normal draw per round. A Conn from NewConn draws
// from a generator of its own; a Conn from (*Jitter).NewConn reads the
// same seed's draws, in the same order, from a Jitter shared by every
// replay of that seed — so replays seed the generator once between them,
// not once each, and download exactly as private connections would.
package netem

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"veritas/internal/tcp"
	"veritas/internal/trace"
)

// Config describes the emulated path.
type Config struct {
	// RTT is the base round-trip time in seconds (the paper's testbed
	// uses an 80 ms end-to-end delay).
	RTT float64
	// InitCWND is the initial congestion window in segments; 0 means the
	// Linux default.
	InitCWND float64
	// MaxCWND caps the congestion window in segments (standing in for
	// the receive window); 0 means a generous default.
	MaxCWND float64
	// SlowStartRestart enables RFC 2861 congestion-window validation
	// after idle periods. The paper's testbed has it on.
	SlowStartRestart bool
	// JitterStd is the relative standard deviation of per-round
	// bandwidth noise (queueing, cross traffic). 0 disables noise and
	// makes the emulator deterministic.
	JitterStd float64
	// QueueFactor sizes the bottleneck's droptail queue as a fraction of
	// the BDP. When the congestion window exceeds BDP·(1+QueueFactor)
	// the sender experiences a loss: ssthresh and cwnd collapse to
	// Beta·cwnd. This keeps ssthresh near the BDP — without it a
	// lossless emulation lets cwnd grow without bound and slow-start
	// restart recovers unrealistically fast. Negative disables loss;
	// 0 means the default 0.25.
	QueueFactor float64
	// Beta is the multiplicative-decrease factor applied on a
	// congestion event (0 means the CUBIC-like default 0.7).
	Beta float64
	// Seed seeds the jitter generator.
	Seed int64
}

// DefaultConfig returns the testbed settings used throughout the
// reproduction: 160 ms RTT (the paper's Mahimahi shell adds an 80 ms
// end-to-end delay in each direction), SSR on, mild jitter.
func DefaultConfig() Config {
	return Config{
		RTT:              0.160,
		SlowStartRestart: true,
		JitterStd:        0.10,
		Seed:             1,
	}
}

func (c Config) withDefaults() Config {
	if c.InitCWND == 0 {
		c.InitCWND = tcp.InitCWND
	}
	if c.MaxCWND == 0 {
		c.MaxCWND = 20000
	}
	if c.QueueFactor == 0 {
		c.QueueFactor = 0.25
	}
	if c.Beta == 0 {
		c.Beta = 0.7
	}
	return c
}

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"RTT", c.RTT}, {"InitCWND", c.InitCWND}, {"MaxCWND", c.MaxCWND},
		{"JitterStd", c.JitterStd}, {"QueueFactor", c.QueueFactor}, {"Beta", c.Beta},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("netem: %s %v is not a finite number", f.name, f.v)
		}
	}
	switch {
	case c.RTT <= 0:
		return fmt.Errorf("netem: RTT %v <= 0", c.RTT)
	case c.InitCWND < 0:
		return fmt.Errorf("netem: InitCWND %v < 0", c.InitCWND)
	case c.MaxCWND < 0:
		return fmt.Errorf("netem: MaxCWND %v < 0", c.MaxCWND)
	case c.JitterStd < 0 || c.JitterStd > 0.5:
		return fmt.Errorf("netem: JitterStd %v outside [0, 0.5]", c.JitterStd)
	case c.Beta < 0 || c.Beta >= 1:
		return fmt.Errorf("netem: Beta %v outside [0, 1)", c.Beta)
	}
	return nil
}

// Conn is a persistent emulated TCP connection. It is not safe for
// concurrent use; a video session owns exactly one.
type Conn struct {
	cfg      Config
	cwnd     float64
	ssthresh float64
	lastSend float64
	hasSent  bool
	// The jitter source: a private generator (NewConn), or a shared
	// Jitter read from index 0 through tape, the prefix of its draws
	// this connection has fetched so far.
	rng   *rand.Rand
	jit   *Jitter
	tape  []float64
	drawn int
}

// ErrStalled is returned when a download can never finish because the
// trace bandwidth is zero for the rest of time.
var ErrStalled = errors.New("netem: download stalled on zero bandwidth")

// NeverSentGap is the LastSendGap reported before any data has been
// sent: large enough to trigger slow-start restart, finite so session
// logs stay JSON-encodable.
const NeverSentGap = 1e9

// NewConn returns a fresh connection over the configured path.
func NewConn(cfg Config) (*Conn, error) {
	c, err := newConn(cfg)
	if err != nil {
		return nil, err
	}
	c.rng = rand.New(rand.NewSource(cfg.Seed))
	return c, nil
}

// newConn returns a connection with no jitter source yet.
func newConn(cfg Config) (*Conn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Conn{
		cfg:      cfg,
		cwnd:     cfg.InitCWND,
		ssthresh: tcp.DefaultSSThresh,
	}, nil
}

// Jitter is one seed's sequence of NormFloat64 draws — exactly those a
// rand.New(rand.NewSource(seed)) would make — drawn lazily and kept, so
// that any number of connections can read the sequence from its start
// while the generator is seeded once. Safe for concurrent use.
type Jitter struct {
	seed  int64
	mu    sync.Mutex
	rng   *rand.Rand // nil until the first draw
	draws []float64
}

// jitterBlock is how many draws a Jitter makes at a time: a few per cent
// of a 300-chunk session's rounds, so a replay fetches a handful of times
// and the sequence overshoots its longest reader by little.
const jitterBlock = 256

// NewJitter returns the draw sequence of seed. Nothing is drawn — and
// the generator is not seeded — until a connection needs a draw.
func NewJitter(seed int64) *Jitter { return &Jitter{seed: seed} }

// Seed returns the seed the sequence is drawn from.
func (j *Jitter) Seed() int64 { return j.seed }

// upTo returns the draws so far, at least n+1 of them. Draws never
// change once made, so a caller reads its returned prefix without the
// lock while later calls append beyond it.
func (j *Jitter) upTo(n int) []float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rng == nil {
		j.rng = rand.New(rand.NewSource(j.seed))
	}
	for len(j.draws) <= n {
		for k := 0; k < jitterBlock; k++ {
			j.draws = append(j.draws, j.rng.NormFloat64())
		}
	}
	return j.draws
}

// NewConn returns a fresh connection over the configured path whose
// jitter is read from j instead of a private generator. cfg.Seed must
// be j's seed; the connection then downloads exactly as NewConn(cfg)'s
// would.
func (j *Jitter) NewConn(cfg Config) (*Conn, error) {
	if cfg.Seed != j.seed {
		return nil, fmt.Errorf("netem: config seed %d, jitter drawn from seed %d", cfg.Seed, j.seed)
	}
	c, err := newConn(cfg)
	if err != nil {
		return nil, err
	}
	c.jit = j
	return c, nil
}

// norm returns the connection's next standard-normal jitter draw.
func (c *Conn) norm() float64 {
	if c.jit == nil {
		return c.rng.NormFloat64()
	}
	if c.drawn == len(c.tape) {
		c.tape = c.jit.upTo(c.drawn)
	}
	v := c.tape[c.drawn]
	c.drawn++
	return v
}

// State returns the TCP control state at time now — the snapshot the
// player logs at the start of each chunk download (the paper's W_sn,
// collected via tcp_info / ss on the real testbed).
func (c *Conn) State(now float64) tcp.State {
	gap := float64(NeverSentGap)
	if c.hasSent {
		gap = now - c.lastSend
		if gap < 0 {
			gap = 0
		}
	}
	return tcp.State{
		CWND:        c.cwnd,
		SSThresh:    c.ssthresh,
		MinRTT:      c.cfg.RTT,
		RTT:         c.cfg.RTT,
		RTO:         tcp.RTOFor(c.cfg.RTT),
		LastSendGap: gap,
	}
}

// Restore forces the connection's congestion state to st as of time
// now. Experiments use this to rebuild the connection a logged chunk
// saw, then measure hypothetical downloads from that exact state.
func (c *Conn) Restore(st tcp.State, now float64) {
	c.cwnd = st.CWND
	c.ssthresh = st.SSThresh
	c.hasSent = st.LastSendGap < NeverSentGap
	if c.hasSent {
		c.lastSend = now - st.LastSendGap
	}
}

// Download transfers sizeBytes over the trace starting at start and
// returns the completion time. The connection's congestion state is
// updated in place (including slow-start restart for the idle gap before
// start).
func (c *Conn) Download(start, sizeBytes float64, tr *trace.Trace) (end float64, err error) {
	if sizeBytes <= 0 {
		return start, nil
	}
	if tr == nil {
		return 0, errors.New("netem: nil trace")
	}
	if c.cfg.SlowStartRestart && c.hasSent {
		st := c.State(start)
		st = tcp.ApplySlowStartRestart(st)
		c.cwnd = st.CWND
		c.ssthresh = st.SSThresh
	}

	t := start
	remaining := float64(tcp.Segments(sizeBytes))
	// The bandwidth is constant on [t, next): look it up again only once
	// a round carries t past next, not every round.
	gtbw, next := tr.Segment(t)
	for remaining > 0 {
		if t >= next {
			gtbw, next = tr.Segment(t)
		}
		if gtbw <= 0 {
			if math.IsInf(next, 1) {
				return 0, ErrStalled
			}
			t = next
			continue
		}
		rate := gtbw
		if c.cfg.JitterStd > 0 {
			noise := 1 + c.norm()*c.cfg.JitterStd
			rate = gtbw * max(0.5, min(1.5, noise))
		}
		bdp := float64(tcp.BDPSegments(rate, c.cfg.RTT))
		flight := min(c.cwnd, bdp)
		if flight > remaining {
			flight = remaining
		}
		if flight < 1 {
			flight = 1
		}
		// A round takes one RTT unless the link is so slow that
		// serializing the flight dominates (sub-MSS bandwidth-delay
		// products).
		serialization := flight * tcp.MSS * 8 / (rate * 1e6)
		roundTime := max(c.cfg.RTT, serialization)
		t += roundTime
		remaining -= flight
		if c.cwnd < c.ssthresh {
			c.cwnd *= 2
		} else {
			c.cwnd++
		}
		// Droptail loss at the bottleneck: multiplicative decrease once
		// the window overruns the pipe plus queue.
		if c.cfg.QueueFactor >= 0 && c.cwnd > bdp*(1+c.cfg.QueueFactor) {
			dec := c.cfg.Beta * c.cwnd
			if dec < 2 {
				dec = 2
			}
			c.ssthresh = dec
			c.cwnd = dec
		}
		if c.cwnd > c.cfg.MaxCWND {
			c.cwnd = c.cfg.MaxCWND
		}
	}
	c.lastSend = t
	c.hasSent = true
	return t, nil
}

// DownloadThroughput is a convenience wrapper returning the observed
// throughput Y = S/D in Mbps for a download starting at start.
func (c *Conn) DownloadThroughput(start, sizeBytes float64, tr *trace.Trace) (end, mbps float64, err error) {
	end, err = c.Download(start, sizeBytes, tr)
	if err != nil {
		return 0, 0, err
	}
	return end, tcp.Mbps(sizeBytes, end-start), nil
}
