// Package tcp models the transport-level control variables Veritas
// conditions on: the TCP state observed at the start of each chunk
// download (the fields of Linux's tcp_info that the paper logs) and the
// throughput estimator f (paper Algorithm 4) that predicts the throughput
// a download of a given size would observe for a candidate ground-truth
// bandwidth.
package tcp

import (
	"fmt"
	"math"
)

const (
	// MSS is the maximum segment size in bytes (1500 MTU minus headers),
	// the unit in which cwnd and ssthresh are counted.
	MSS = 1448

	// InitCWND is the Linux default initial congestion window in
	// segments (RFC 6928).
	InitCWND = 10

	// DefaultSSThresh mirrors Linux's effectively-unbounded initial slow
	// start threshold.
	DefaultSSThresh = 1 << 20
)

// State is the TCP state at the start of a chunk download — the control
// variables W_sn of the paper (cwnd, ssthresh, rto, RTT estimates, and
// the gap since the last send, which determines slow-start restart).
type State struct {
	CWND        float64 // congestion window, in segments
	SSThresh    float64 // slow start threshold, in segments
	MinRTT      float64 // minimum observed round-trip time, seconds
	RTT         float64 // smoothed round-trip time, seconds
	RTO         float64 // retransmission timeout, seconds
	LastSendGap float64 // seconds since data was last transmitted
}

// Fresh returns the state of a brand-new connection with the given
// round-trip time.
func Fresh(rtt float64) State {
	return State{
		CWND:        InitCWND,
		SSThresh:    DefaultSSThresh,
		MinRTT:      rtt,
		RTT:         rtt,
		RTO:         RTOFor(rtt),
		LastSendGap: 0,
	}
}

// RTOFor returns the retransmission timeout Linux would derive from a
// smoothed RTT with negligible variance: max(200ms, 2*rtt) approximates
// srtt + 4*rttvar with the kernel's 200 ms floor on the variance term.
func RTOFor(rtt float64) float64 {
	rto := 2 * rtt
	if rto < 0.2 {
		rto = 0.2
	}
	return rto
}

// Validate reports the first invalid field, if any: CheckEstimable's,
// then a non-positive RTT or RTO or a negative send gap.
func (s State) Validate() error {
	if err := s.CheckEstimable(); err != nil {
		return err
	}
	switch {
	case s.MinRTT <= 0:
		return fmt.Errorf("tcp: min rtt %v <= 0", s.MinRTT)
	case s.RTO <= 0:
		return fmt.Errorf("tcp: rto %v <= 0", s.RTO)
	case s.LastSendGap < 0:
		return fmt.Errorf("tcp: last send gap %v < 0", s.LastSendGap)
	}
	return nil
}

// CheckEstimable reports the first field EstimateThroughput cannot run
// on: a non-finite one (an infinite window never leaves slow-start
// restart), or a window or threshold below one segment (every round
// would send a single segment). A non-positive RTT it can run on.
func (s State) CheckEstimable() error {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"cwnd", s.CWND}, {"ssthresh", s.SSThresh}, {"min rtt", s.MinRTT},
		{"rtt", s.RTT}, {"rto", s.RTO}, {"last send gap", s.LastSendGap},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("tcp: %s %v is not a finite number", f.name, f.v)
		}
	}
	switch {
	case s.CWND < 1:
		return fmt.Errorf("tcp: cwnd %v < 1 segment", s.CWND)
	case s.SSThresh < 1:
		return fmt.Errorf("tcp: ssthresh %v < 1 segment", s.SSThresh)
	}
	return nil
}

// segmentMax caps a segment count before it becomes an int: 2⁵³, the
// bound past which a float64 stops counting every integer. Converting a
// larger quotient is implementation-defined in Go (on amd64 one past
// 2⁶³ wraps to a negative int), so a count is clamped first; every
// count below the cap is the quotient's own.
const segmentMax = 1 << 53

// Segments returns the number of MSS-sized segments needed for a payload
// of the given size in bytes (at least 1 for any positive size, at most
// 2⁵³).
func Segments(bytes float64) int {
	if bytes <= 0 {
		return 0
	}
	return int(min(math.Ceil(bytes/MSS), segmentMax))
}

// BDPSegments returns the bandwidth-delay product of a link running at
// gtbw Mbps with the given RTT, expressed in segments (at least 1 so that
// transmission always makes progress, at most 2⁵³).
func BDPSegments(gtbwMbps, rtt float64) int {
	bytes := gtbwMbps * 1e6 / 8 * rtt
	seg := int(min(bytes/MSS, segmentMax))
	if seg < 1 {
		seg = 1
	}
	return seg
}

// SlowStartRestart returns the window and threshold after Linux's
// congestion-window validation (RFC 2861) on a connection idle for idle
// seconds whose retransmission timeout is rto: when the connection has
// been idle longer than the RTO, cwnd is halved once per elapsed RTO
// down to the initial window, and ssthresh is raised to 3/4 of the
// pre-decay cwnd. It is the one copy of the rule, for the estimator and
// the emulator's live connections alike.
//
// Note: the paper's Algorithm 4 as printed grows cwnd during restart
// ("cwnd << 2"), which contradicts the Linux behaviour it cites; we
// implement the kernel's tcp_cwnd_restart semantics.
func SlowStartRestart(cwnd, ssthresh, idle, rto float64) (float64, float64) {
	if idle <= rto {
		return cwnd, ssthresh
	}
	// ssthresh = max(ssthresh, 3/4 cwnd) — matches the paper's
	// (cwnd>>1)+(cwnd>>2) update.
	if restartThresh := 0.75 * cwnd; restartThresh > ssthresh {
		ssthresh = restartThresh
	}
	for idle > rto && cwnd > InitCWND && cwnd < math.Inf(1) { // an infinite window halves to itself
		idle -= rto
		cwnd /= 2
	}
	if cwnd < InitCWND {
		cwnd = InitCWND
	}
	return cwnd, ssthresh
}

// EstimateThroughput is the paper's estimator f (Algorithm 4): the
// throughput in Mbps that a download of sizeBytes would observe on a link
// whose ground-truth bandwidth is gtbwMbps, starting from TCP state s.
//
// The model: after applying slow-start restart, transmission proceeds in
// rounds of one MinRTT each; a round carries min(cwnd, BDP) segments;
// cwnd doubles below ssthresh and grows by one segment per round above
// it. Losses are not modeled. If the first window already covers the
// whole payload the transfer takes a single RTT.
//
// The window's rounds do not depend on the link, and the window only
// grows, so they are walked only until the window reaches the BDP: every
// later round carries exactly the BDP, and their count is one integer
// division. The result is the round-by-round loop's, bit for bit. It
// returns on every state whose window after restart is not a finite
// negative number: every state CheckEstimable accepts, and a NaN or
// infinite window.
func EstimateThroughput(gtbwMbps float64, s State, sizeBytes float64) float64 {
	var w walk
	w.start(s, sizeBytes)
	return w.estimate(gtbwMbps)
}

// EstimateRow fills dst[i] with EstimateThroughput(float64(i)*epsMbps, s,
// sizeBytes), bit for bit: an emission row's predictions over the
// capacity grid. BDPSegments does not fall as the capacity rises, so one
// walk of the window, resumed cell by cell, serves the whole row.
func EstimateRow(dst []float64, epsMbps float64, s State, sizeBytes float64) {
	var w walk
	w.start(s, sizeBytes)
	for i := range dst {
		dst[i] = w.estimate(float64(i) * epsMbps)
	}
}

// walk is Algorithm 4's round loop for one transfer, run only as far as
// a BDP asks and resumable for a larger one: the rounds it has walked
// are those of every link whose BDP exceeds each of their windows.
type walk struct {
	rtt, size          float64
	ssthresh, cwnd     float64 // after slow-start restart; cwnd is the next round's window
	data, sent, rounds int
	stalled            bool // the window stopped growing (it is not positive)
}

// start readies a zero walk for a transfer of sizeBytes from state s.
func (w *walk) start(s State, sizeBytes float64) {
	w.cwnd, w.ssthresh = SlowStartRestart(s.CWND, s.SSThresh, s.LastSendGap, s.RTO)
	w.rtt, w.size, w.data = s.MinRTT, sizeBytes, Segments(sizeBytes)
}

// estimate is EstimateThroughput on the link of gtbwMbps, advancing the
// walk to its BDP; successive calls take capacities whose BDPs do not
// fall.
func (w *walk) estimate(gtbwMbps float64) float64 {
	if w.size <= 0 || gtbwMbps <= 0 {
		return 0
	}
	if w.rtt <= 0 {
		// Degenerate state (never valid per Validate, but reachable from
		// raw logs): with no round-trip time the transfer is purely
		// link-limited. Returning gtbwMbps keeps the estimator finite
		// instead of dividing size by a zero RTT below.
		return gtbwMbps
	}
	bdp := BDPSegments(gtbwMbps, w.rtt)
	cwnd, sent, rounds, stalled := w.cwnd, w.sent, w.rounds, w.stalled
	for sent < w.data && cwnd < float64(bdp) && !stalled {
		sent += int(cwnd) // the round's flight: the window, below the BDP
		if cwnd < 1 {
			sent++ // defensive: guarantee progress
		}
		next := cwnd + 1
		if cwnd < w.ssthresh {
			next = cwnd * 2
		}
		stalled = !(next > cwnd)
		cwnd = next
		rounds++
	}
	w.cwnd, w.sent, w.rounds, w.stalled = cwnd, sent, rounds, stalled
	if rounds == 0 {
		// The window is no constraint: either the transfer is long enough
		// to observe the full link rate, or it fits in one flight and the
		// observed throughput is size over one RTT.
		if w.data > bdp {
			return gtbwMbps
		}
		return bytesPerSecToMbps(w.size / w.rtt)
	}
	if rest := w.data - sent; rest > 0 {
		switch {
		case !stalled: // the window reached the BDP: every round carries it
			rounds += (rest + bdp - 1) / bdp
		case cwnd == 0: // a zero window sends one segment a round
			rounds += rest
		default: // a shrinking window never delivers the payload
			return 0
		}
	}
	est := bytesPerSecToMbps(w.size / (float64(rounds) * w.rtt))
	return math.Min(est, gtbwMbps)
}

// EstimateDownloadTime converts EstimateThroughput into a predicted
// download duration in seconds for the given chunk size. A zero-byte
// chunk downloads in zero time (the estimator's zero throughput for it
// means "no data", not "stalled link"); only a positive payload over a
// dead link predicts +Inf.
func EstimateDownloadTime(gtbwMbps float64, s State, sizeBytes float64) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	tput := EstimateThroughput(gtbwMbps, s, sizeBytes)
	if tput <= 0 {
		return math.Inf(1)
	}
	return sizeBytes * 8 / (tput * 1e6)
}

func bytesPerSecToMbps(bps float64) float64 { return bps * 8 / 1e6 }

// Mbps converts a (bytes, seconds) observation into the throughput in
// Mbps, the Y_n = S_n/D_n observable of the paper.
func Mbps(bytes, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return bytes * 8 / 1e6 / seconds
}
