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
// Jitter is one standard-normal draw per round from mathx.NewRand(Seed),
// the module's one seeded source, whose draws equal math/rand's
// rand.New(rand.NewSource(Seed)). Who owns the generator depends on how
// the Conn was made, never what it draws:
//   - A Conn from NewConn draws from a generator of its own.
//   - A Conn readied by Reset draws from the caller's generator, which
//     Reset reseeds with Seed: a fleet worker keeps one generator (in
//     its hmm.Scratch) and one Conn, and every session's deployed
//     connection reseeds that generator instead of allocating another.
//   - A Conn from NewSharedConn, or readied by ResetShared, reads the
//     same draws, in the same order, from the process's one sequence for
//     its seed: every shared connection of a seed reads that sequence
//     from its start, so the generator is seeded once per seed per
//     process, not once per connection.
//
// Each downloads exactly as a NewConn connection would. The registry
// keeps each sequence for the life of the process, grown to as many
// draws as the longest run of any one connection of its seed (a few
// thousand for a 300-chunk session); past sharedJitterCap seeds, a
// shared connection of a new seed reads a sequence of its own.
//
// Download is the innermost loop of every simulation and replay, so it
// does only the arithmetic its answer needs: the congestion state, path
// constants and jitter tape position live in locals for the whole
// download; slow-start restart is tcp.SlowStartRestart, the one copy of
// the rule, applied to the window directly; and a round divides out its
// serialization time only where that could exceed the RTT. The result
// equals the plain per-round loop (oracle_test.go) bit for bit.
package netem

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"veritas/internal/mathx"
	"veritas/internal/tcp"
	"veritas/internal/trace"
)

// Config describes the emulated path.
type Config struct {
	// RTT is the base round-trip time in seconds (the paper's testbed
	// uses an 80 ms end-to-end delay).
	RTT float64
	// SlowStartRestart enables RFC 2861 congestion-window validation
	// after idle periods. The paper's testbed has it on.
	SlowStartRestart bool
	// JitterStd is the relative standard deviation of per-round
	// bandwidth noise (queueing, cross traffic). 0 disables noise and
	// makes the emulator deterministic.
	JitterStd float64
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

// The emulated sender's fixed congestion control. A connection starts
// at tcp.InitCWND segments, the Linux default.
const (
	// maxCWND caps the congestion window in segments, standing in for
	// the receive window.
	maxCWND = 20000
	// queueFactor sizes the bottleneck's droptail queue as a fraction of
	// the BDP. When the congestion window exceeds BDP·(1+queueFactor)
	// the sender experiences a loss: ssthresh and cwnd collapse to
	// beta·cwnd. This keeps ssthresh near the BDP — without it a
	// lossless emulation lets cwnd grow without bound and slow-start
	// restart recovers unrealistically fast.
	queueFactor = 0.25
	// beta is the CUBIC-like multiplicative-decrease factor applied on a
	// congestion event.
	beta = 0.7
)

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"RTT", c.RTT}, {"JitterStd", c.JitterStd},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("netem: %s %v is not a finite number", f.name, f.v)
		}
	}
	switch {
	case c.RTT <= 0:
		return fmt.Errorf("netem: RTT %v <= 0", c.RTT)
	case c.JitterStd < 0 || c.JitterStd > 0.5:
		return fmt.Errorf("netem: JitterStd %v outside [0, 0.5]", c.JitterStd)
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
	// The jitter source: a generator (NewConn's own, or the caller's
	// one handed to Reset), or a shared jitter read from index 0 through
	// tape, the prefix of its draws this connection has fetched so far.
	rng   *mathx.Rand
	jit   *jitter
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

// NewConn returns a fresh connection over the configured path, with a
// jitter generator of its own seeded with cfg.Seed.
func NewConn(cfg Config) (*Conn, error) {
	c := new(Conn)
	if err := c.reset(cfg); err != nil {
		return nil, err
	}
	c.rng = mathx.NewRand(cfg.Seed)
	return c, nil
}

// Reset makes c the connection NewConn(cfg) returns, except that its
// jitter comes from rng, reseeded here with cfg.Seed, instead of from a
// generator of its own: the draws, and so every download, are those of
// NewConn(cfg)'s connection. The caller owns rng and must not draw from
// it while c is in use. A worker that streams one session after another
// keeps one Conn and one generator this way instead of allocating both
// per session. On an invalid cfg, c is left as it was.
func (c *Conn) Reset(cfg Config, rng *mathx.Rand) error {
	if err := c.reset(cfg); err != nil {
		return err
	}
	rng.Seed(cfg.Seed)
	c.rng = rng
	return nil
}

// reset returns c to a fresh connection over cfg with no jitter source
// yet.
func (c *Conn) reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*c = Conn{
		cfg:      cfg,
		cwnd:     tcp.InitCWND,
		ssthresh: tcp.DefaultSSThresh,
	}
	return nil
}

// jitter is one seed's sequence of NormFloat64 draws from
// mathx.NewRand(seed), drawn lazily and kept, so that any number of
// connections can read the sequence from its start while the generator
// is seeded once. Safe for concurrent use.
type jitter struct {
	seed  int64
	mu    sync.Mutex
	rng   *mathx.Rand // nil until the first draw
	draws []float64
}

// jitterBlock is how many draws a jitter makes at a time: a few per cent
// of a 300-chunk session's rounds, so a replay fetches a handful of times
// and the sequence overshoots its longest reader by little.
const jitterBlock = 256

// upTo returns the draws so far, at least n+1 of them. Draws never
// change once made, so a caller reads its returned prefix without the
// lock while later calls append beyond it.
func (j *jitter) upTo(n int) []float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rng == nil {
		j.rng = mathx.NewRand(j.seed)
	}
	for len(j.draws) <= n {
		for k := 0; k < jitterBlock; k++ {
			j.draws = append(j.draws, j.rng.NormFloat64())
		}
	}
	return j.draws
}

// sharedJitters is the process-wide registry of draw sequences, one per
// seed, bounded so that a stream of distinct seeds cannot grow it
// without limit.
var sharedJitters = struct {
	mu      sync.Mutex
	jitters map[int64]*jitter
}{jitters: make(map[int64]*jitter)}

// sharedJitterCap bounds the registry. Replays use few seeds (every
// what-if arm of a campaign shares the default path's); past the cap a
// new seed's connection reads a sequence of its own, not registered.
const sharedJitterCap = 64

// sharedJitter returns the registered sequence of seed, registering a
// new one while there is room.
func sharedJitter(seed int64) *jitter {
	sharedJitters.mu.Lock()
	defer sharedJitters.mu.Unlock()
	if j := sharedJitters.jitters[seed]; j != nil {
		return j
	}
	j := &jitter{seed: seed}
	if len(sharedJitters.jitters) < sharedJitterCap {
		sharedJitters.jitters[seed] = j
	}
	return j
}

// NewSharedConn returns a fresh connection over the configured path that
// reads its jitter from the process's sequence of cfg.Seed instead of a
// generator. It downloads exactly as NewConn(cfg)'s would.
func NewSharedConn(cfg Config) (*Conn, error) {
	c := new(Conn)
	if err := c.ResetShared(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// ResetShared makes c the connection NewSharedConn(cfg) returns, reusing
// only its storage: a replay loop keeps one Conn instead of allocating
// one per replay. On an invalid cfg, c is left as it was.
func (c *Conn) ResetShared(cfg Config) error {
	if err := c.reset(cfg); err != nil {
		return err
	}
	c.jit = sharedJitter(cfg.Seed)
	return nil
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
//
// The round loop keeps the window, threshold, path constants and jitter
// tape position in locals and writes them back once, when the download
// ends or stalls. A round's serialization time num/den is divided out
// only when num ≥ RTT·den·(1 − 1e-12): below that the quotient rounds to
// at most RTT, so max(RTT, num/den) is RTT without it.
func (c *Conn) Download(start, sizeBytes float64, tr *trace.Trace) (end float64, err error) {
	if sizeBytes <= 0 {
		return start, nil
	}
	if tr == nil {
		return 0, errors.New("netem: nil trace")
	}
	rtt, jitterStd := c.cfg.RTT, c.cfg.JitterStd
	cwnd, ssthresh := c.cwnd, c.ssthresh
	if c.cfg.SlowStartRestart && c.hasSent {
		idle := start - c.lastSend
		if idle < 0 {
			idle = 0
		}
		cwnd, ssthresh = tcp.SlowStartRestart(cwnd, ssthresh, idle, tcp.RTOFor(rtt))
	}
	// The guard's bound: rttBelow·den as computed stays below RTT·den,
	// since its three roundings add under 4e-16 to the 1e-12 margin. So
	// num under it means num/den < RTT exactly, and the rounded quotient
	// is at most RTT.
	rttBelow := rtt * (1 - 1e-12)
	rng, jit, tape, drawn := c.rng, c.jit, c.tape, c.drawn

	t := start
	remaining := float64(tcp.Segments(sizeBytes))
	for remaining > 0 {
		// The bandwidth is constant on [t, next): the rounds from t run
		// in the inner loop, which calls nothing on its common path, and
		// the trace is looked up again only once a round carries t past
		// next.
		gtbw, next := tr.Segment(t)
		if gtbw <= 0 {
			if math.IsInf(next, 1) {
				c.cwnd, c.ssthresh, c.tape, c.drawn = cwnd, ssthresh, tape, drawn
				return 0, ErrStalled
			}
			t = next
			continue
		}
		for {
			rate := gtbw
			if jitterStd > 0 {
				var z float64
				if jit == nil {
					z = rng.NormFloat64()
				} else {
					if drawn == len(tape) {
						tape = jit.upTo(drawn)
					}
					z = tape[drawn]
					drawn++
				}
				// A draw is finite, so the noise is never NaN and the clamp
				// needs no NaN rule.
				noise := 1 + z*jitterStd
				if noise > 1.5 {
					noise = 1.5
				} else if noise < 0.5 {
					noise = 0.5
				}
				rate = gtbw * noise
			}
			bdp := float64(tcp.BDPSegments(rate, rtt))
			// min(cwnd, bdp), a NaN window (Restore takes any state) included.
			flight := bdp
			if !(cwnd >= bdp) {
				flight = cwnd
			}
			if flight > remaining {
				flight = remaining
			}
			if flight < 1 {
				flight = 1
			}
			// A round takes one RTT unless the link is so slow that
			// serializing the flight dominates (sub-MSS bandwidth-delay
			// products).
			roundTime := rtt
			if num, den := flight*tcp.MSS*8, rate*1e6; !(num < rttBelow*den) {
				roundTime = max(rtt, num/den)
			}
			t += roundTime
			remaining -= flight
			if cwnd < ssthresh {
				cwnd *= 2
			} else {
				cwnd++
			}
			// Droptail loss at the bottleneck: multiplicative decrease once
			// the window overruns the pipe plus queue.
			if cwnd > bdp*(1+queueFactor) {
				dec := beta * cwnd
				if dec < 2 {
					dec = 2
				}
				ssthresh = dec
				cwnd = dec
			}
			if cwnd > maxCWND {
				cwnd = maxCWND
			}
			if !(remaining > 0) || t >= next {
				break
			}
		}
	}
	c.cwnd, c.ssthresh, c.tape, c.drawn = cwnd, ssthresh, tape, drawn
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
