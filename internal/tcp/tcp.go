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

// Segments returns the number of MSS-sized segments needed for a payload
// of the given size in bytes (at least 1 for any positive size).
func Segments(bytes float64) int {
	if bytes <= 0 {
		return 0
	}
	return int(math.Ceil(bytes / MSS))
}

// BDPSegments returns the bandwidth-delay product of a link running at
// gtbw Mbps with the given RTT, expressed in segments (at least 1 so that
// transmission always makes progress).
func BDPSegments(gtbwMbps, rtt float64) int {
	bytes := gtbwMbps * 1e6 / 8 * rtt
	seg := int(bytes / MSS)
	if seg < 1 {
		seg = 1
	}
	return seg
}

// ApplySlowStartRestart returns the state after Linux's congestion-window
// validation (RFC 2861): when the connection has been idle longer than
// the RTO, cwnd is halved once per elapsed RTO down to the initial
// window, and ssthresh is raised to 3/4 of the pre-decay cwnd.
//
// Note: the paper's Algorithm 4 as printed grows cwnd during restart
// ("cwnd << 2"), which contradicts the Linux behaviour it cites; we
// implement the kernel's tcp_cwnd_restart semantics (see DESIGN.md §3).
func ApplySlowStartRestart(s State) State {
	if s.LastSendGap <= s.RTO {
		return s
	}
	// ssthresh = max(ssthresh, 3/4 cwnd) — matches the paper's
	// (cwnd>>1)+(cwnd>>2) update.
	restartThresh := 0.75 * s.CWND
	if restartThresh > s.SSThresh {
		s.SSThresh = restartThresh
	}
	idle := s.LastSendGap
	for idle > s.RTO && s.CWND > InitCWND {
		idle -= s.RTO
		s.CWND /= 2
	}
	if s.CWND < InitCWND {
		s.CWND = InitCWND
	}
	return s
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
func EstimateThroughput(gtbwMbps float64, s State, sizeBytes float64) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	if gtbwMbps <= 0 {
		return 0
	}
	if s.MinRTT <= 0 {
		// Degenerate state (never valid per Validate, but reachable from
		// raw logs): with no round-trip time the transfer is purely
		// link-limited. Returning gtbwMbps keeps the estimator finite
		// instead of dividing size by a zero RTT below.
		return gtbwMbps
	}
	s = ApplySlowStartRestart(s)

	dataSeg := Segments(sizeBytes)
	bdpSeg := BDPSegments(gtbwMbps, s.MinRTT)

	if int(s.CWND) >= bdpSeg {
		// The window is no constraint: either the transfer is long enough
		// to observe the full link rate, or it fits in one flight and the
		// observed throughput is size over one RTT.
		if dataSeg > bdpSeg {
			return gtbwMbps
		}
		return bytesPerSecToMbps(sizeBytes / s.MinRTT)
	}

	rounds := 0
	sent := 0
	cwnd := s.CWND
	for sent < dataSeg {
		flight := math.Min(cwnd, float64(bdpSeg))
		sent += int(flight)
		if flight < 1 {
			sent++ // defensive: guarantee progress
		}
		if cwnd < s.SSThresh {
			cwnd *= 2
		} else {
			cwnd++
		}
		rounds++
	}
	est := bytesPerSecToMbps(sizeBytes / (float64(rounds) * s.MinRTT))
	return math.Min(est, gtbwMbps)
}

// saturationMax bounds the windows and payloads Saturation vouches for,
// in segments and bytes: below it the helper's integer arithmetic is
// exact and its round loop short.
const saturationMax = 1 << 40

// Saturation returns the point past which EstimateThroughput stops
// depending on the link, for links up to topMbps: for every gtbwMbps ≤
// topMbps with gtbwMbps ≥ mbps and BDPSegments(gtbwMbps, s.MinRTT) ≥
// bdpSeg, EstimateThroughput(gtbwMbps, s, sizeBytes) is exactly mbps.
// There the BDP exceeds every window the transfer uses, so the rounds
// are the window's alone. On [0, topMbps] that test is monotone in
// gtbwMbps, and it holds at topMbps. ok is false when the helper cannot
// vouch for such a point — an empty or implausibly large payload, a
// window below one segment or beyond saturationMax, a non-positive RTT,
// a BDP at topMbps too large to count exactly, or a topMbps that does
// not saturate — and the caller must evaluate every capacity.
func Saturation(s State, sizeBytes, topMbps float64) (bdpSeg int, mbps float64, ok bool) {
	if !(sizeBytes > 0 && sizeBytes < saturationMax) || !(s.MinRTT > 0) ||
		!(s.CWND >= 1 && s.CWND < saturationMax) ||
		!(topMbps*1e6/8*s.MinRTT/MSS < 1<<53) { // BDPSegments stays exact, so monotone
		return 0, 0, false
	}
	s = ApplySlowStartRestart(s)
	dataSeg := Segments(sizeBytes)
	// EstimateThroughput's round loop with an unbounded BDP: every
	// flight is the whole window.
	rounds, sent, cwnd, widest := 0, 0, s.CWND, s.CWND
	for sent < dataSeg {
		widest = cwnd
		sent += int(cwnd)
		if cwnd < s.SSThresh {
			cwnd *= 2
		} else {
			cwnd++
		}
		rounds++
	}
	// A BDP of at least the widest flight leaves every flight unclipped,
	// and one above the initial window keeps the estimator out of its
	// window-is-no-constraint branch.
	bdpSeg = max(int(math.Ceil(widest)), int(s.CWND)+1)
	mbps = bytesPerSecToMbps(sizeBytes / (float64(rounds) * s.MinRTT))
	if !(topMbps >= mbps && BDPSegments(topMbps, s.MinRTT) >= bdpSeg) {
		return 0, 0, false
	}
	return bdpSeg, mbps, true
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
