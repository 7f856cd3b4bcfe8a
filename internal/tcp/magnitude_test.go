package tcp

import (
	"math"
	"testing"
)

// TestHugeMinRTTSaturatesTheBDP: a logged min RTT is only checked for
// being finite, so a huge one reaches the estimator. Its BDP saturates
// at the 2⁵³ cap instead of wrapping through an out-of-range float→int
// conversion (before the cap, a min RTT of 1e17 s turned a 5 Mbps BDP
// into one segment and the estimate of a 1 MB download into the full
// 5 Mbps), so as the RTT grows the BDP never falls and the estimate
// never rises.
func TestHugeMinRTTSaturatesTheBDP(t *testing.T) {
	const gtbw, size = 5.0, 1e6
	prevBDP, prevEst := 0, math.Inf(1)
	for _, rtt := range []float64{1e16, 1e17, 1e20, 1e300} {
		s := Fresh(rtt)
		if err := s.CheckEstimable(); err != nil {
			t.Fatalf("min rtt %g: %v", rtt, err)
		}
		bdp, est := BDPSegments(gtbw, rtt), EstimateThroughput(gtbw, s, size)
		if bdp < prevBDP || bdp > segmentMax {
			t.Errorf("min rtt %g: BDPSegments = %d, after %d at a shorter rtt (cap %d)", rtt, bdp, prevBDP, segmentMax)
		}
		if !(est <= prevEst) || est < 0 {
			t.Errorf("min rtt %g: EstimateThroughput = %g Mbps, after %g at a shorter rtt", rtt, est, prevEst)
		}
		prevBDP, prevEst = bdp, est
	}
}

// TestHugeWindowIsNoConstraint: a finite window past 2⁶³ segments is as
// unconstraining as one just below it, not a wrapped negative count.
func TestHugeWindowIsNoConstraint(t *testing.T) {
	s := Fresh(0.05)
	want := EstimateThroughput(5, State{CWND: 1e18, SSThresh: s.SSThresh, MinRTT: s.MinRTT, RTT: s.RTT, RTO: s.RTO}, 1e6)
	for _, cwnd := range []float64{1e19, 1e300} {
		st := State{CWND: cwnd, SSThresh: s.SSThresh, MinRTT: s.MinRTT, RTT: s.RTT, RTO: s.RTO}
		if got := EstimateThroughput(5, st, 1e6); got != want {
			t.Errorf("cwnd %g: EstimateThroughput = %v Mbps, want %v as at cwnd 1e18", cwnd, got, want)
		}
	}
}

// FuzzBDPSegmentsMonotone: for a finite positive rate and RTT the BDP is
// at least one segment and does not fall when either grows; for any
// positive size the segment count is at least one and does not fall as
// the size grows. The seed is the wrapping case: 5 Mbps at a 1e16 s and
// a 1e17 s min RTT.
func FuzzBDPSegmentsMonotone(f *testing.F) {
	f.Add(5.0, 1e16, 5.0, 1e17, 1e6, 1e24)
	f.Add(10.0, 0.08, 20.0, 0.16, 1448.0, 1449.0)
	f.Fuzz(func(t *testing.T, gtbw, rtt, gtbw2, rtt2, size, size2 float64) {
		finitePos := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
		if finitePos(gtbw) && finitePos(rtt) {
			bdp := BDPSegments(gtbw, rtt)
			if bdp < 1 {
				t.Fatalf("BDPSegments(%g, %g) = %d < 1", gtbw, rtt, bdp)
			}
			if finitePos(gtbw2) && gtbw2 > gtbw {
				if got := BDPSegments(gtbw2, rtt); got < bdp {
					t.Fatalf("BDPSegments(%g, %g) = %d < BDPSegments(%g, %g) = %d", gtbw2, rtt, got, gtbw, rtt, bdp)
				}
			}
			if finitePos(rtt2) && rtt2 > rtt {
				if got := BDPSegments(gtbw, rtt2); got < bdp {
					t.Fatalf("BDPSegments(%g, %g) = %d < BDPSegments(%g, %g) = %d", gtbw, rtt2, got, gtbw, rtt, bdp)
				}
			}
		}
		if size > 0 {
			n := Segments(size)
			if n < 1 {
				t.Fatalf("Segments(%g) = %d < 1", size, n)
			}
			if size2 > size {
				if got := Segments(size2); got < n {
					t.Fatalf("Segments(%g) = %d < Segments(%g) = %d", size2, got, size, n)
				}
			}
		}
	})
}
