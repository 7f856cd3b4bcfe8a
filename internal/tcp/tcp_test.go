package tcp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSegments(t *testing.T) {
	cases := []struct {
		bytes float64
		want  int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {MSS, 1}, {MSS + 1, 2}, {10 * MSS, 10},
	}
	for _, c := range cases {
		if got := Segments(c.bytes); got != c.want {
			t.Errorf("Segments(%v) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestBDPSegments(t *testing.T) {
	// 10 Mbps × 80 ms = 100 kB = 69 segments of 1448 B.
	got := BDPSegments(10, 0.080)
	bdpBytes := 10e6 / 8 * 0.080
	want := int(bdpBytes / MSS)
	if got != want {
		t.Errorf("BDPSegments = %d, want %d", got, want)
	}
	// Tiny rates floor at one segment.
	if got := BDPSegments(0.001, 0.01); got != 1 {
		t.Errorf("BDPSegments floor = %d, want 1", got)
	}
}

func TestRTOFor(t *testing.T) {
	if got := RTOFor(0.010); got != 0.2 {
		t.Errorf("RTOFor(10ms) = %v, want 0.2 floor", got)
	}
	if got := RTOFor(0.5); got != 1.0 {
		t.Errorf("RTOFor(500ms) = %v, want 1.0", got)
	}
}

func TestFreshValid(t *testing.T) {
	s := Fresh(0.080)
	if err := s.Validate(); err != nil {
		t.Errorf("Fresh state invalid: %v", err)
	}
	if s.CWND != InitCWND {
		t.Errorf("Fresh cwnd = %v, want %v", s.CWND, float64(InitCWND))
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	good := Fresh(0.08)
	mutations := []func(*State){
		func(s *State) { s.CWND = 0 },
		func(s *State) { s.SSThresh = 0 },
		func(s *State) { s.MinRTT = 0 },
		func(s *State) { s.RTO = -1 },
		func(s *State) { s.LastSendGap = -1 },
		func(s *State) { s.CWND = math.NaN() },
		func(s *State) { s.SSThresh = math.Inf(1) },
		func(s *State) { s.RTT = math.Inf(-1) },
		func(s *State) { s.LastSendGap = math.NaN() },
	}
	for i, mut := range mutations {
		s := good
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestCheckEstimable(t *testing.T) {
	good := Fresh(0.08)
	refused := map[string]func(*State){
		"cwnd 0":            func(s *State) { s.CWND = 0 },
		"cwnd 0.5":          func(s *State) { s.CWND = 0.5 },
		"ssthresh 0":        func(s *State) { s.SSThresh = 0 },
		"cwnd NaN":          func(s *State) { s.CWND = math.NaN() },
		"cwnd +Inf":         func(s *State) { s.CWND = math.Inf(1) },
		"min rtt NaN":       func(s *State) { s.MinRTT = math.NaN() },
		"rtt -Inf":          func(s *State) { s.RTT = math.Inf(-1) },
		"rto +Inf":          func(s *State) { s.RTO = math.Inf(1) },
		"last send gap NaN": func(s *State) { s.LastSendGap = math.NaN() },
	}
	for name, mut := range refused {
		s := good
		mut(&s)
		if err := s.CheckEstimable(); err == nil || !strings.Contains(err.Error(), strings.Fields(name)[0]) {
			t.Errorf("%s: CheckEstimable = %v, want an error naming the field", name, err)
		}
	}
	// The estimator runs on a zero RTT (link-limited) and a zero RTO;
	// only Validate refuses them.
	for _, mut := range []func(*State){
		func(s *State) { s.MinRTT = 0 },
		func(s *State) { s.RTO = 0 },
	} {
		s := good
		mut(&s)
		if err := s.CheckEstimable(); err != nil {
			t.Errorf("CheckEstimable(%+v) = %v, want nil", s, err)
		}
	}
}

func TestSSRNoopWhenNotIdle(t *testing.T) {
	s := Fresh(0.08)
	s.CWND = 100
	s.LastSendGap = 0.05 // below RTO
	got := ApplySlowStartRestart(s)
	if got.CWND != 100 {
		t.Errorf("SSR should not fire below RTO: cwnd %v", got.CWND)
	}
}

func TestSSRHalvesPerRTO(t *testing.T) {
	s := Fresh(0.08)
	s.CWND = 80
	s.SSThresh = 10
	s.RTO = 0.2
	s.LastSendGap = 0.5 // two full RTOs of idle -> two halvings
	got := ApplySlowStartRestart(s)
	if got.CWND != 20 {
		t.Errorf("cwnd after 2 halvings = %v, want 20", got.CWND)
	}
	// ssthresh raised to 3/4 of pre-decay cwnd.
	if got.SSThresh != 60 {
		t.Errorf("ssthresh = %v, want 60", got.SSThresh)
	}
}

func TestSSRFloorsAtInitCWND(t *testing.T) {
	s := Fresh(0.08)
	s.CWND = 64
	s.LastSendGap = 100 // very long idle
	got := ApplySlowStartRestart(s)
	if got.CWND != InitCWND {
		t.Errorf("cwnd floor = %v, want %v", got.CWND, float64(InitCWND))
	}
}

func TestEstimateThroughputZeroInputs(t *testing.T) {
	s := Fresh(0.08)
	if got := EstimateThroughput(5, s, 0); got != 0 {
		t.Errorf("zero size should give 0, got %v", got)
	}
	if got := EstimateThroughput(0, s, 1e6); got != 0 {
		t.Errorf("zero bandwidth should give 0, got %v", got)
	}
}

func TestEstimateThroughputLargeTransferSteadyState(t *testing.T) {
	// A hot connection (cwnd above BDP) downloading far more than the
	// BDP observes the full link rate.
	s := Fresh(0.08)
	s.CWND = 1000
	s.SSThresh = 1000
	got := EstimateThroughput(10, s, 50e6)
	if got != 10 {
		t.Errorf("steady-state throughput = %v, want 10", got)
	}
}

func TestEstimateThroughputSingleFlight(t *testing.T) {
	// A payload that fits in one window on a hot connection takes one
	// RTT: throughput = size / minRTT.
	s := Fresh(0.08)
	s.CWND = 1000
	size := 5 * float64(MSS)
	got := EstimateThroughput(10, s, size)
	want := size * 8 / 1e6 / s.MinRTT
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("single-flight throughput = %v, want %v", got, want)
	}
}

func TestEstimateThroughputSlowStartPenalty(t *testing.T) {
	// A cold connection needs multiple doubling rounds: observed
	// throughput is well below the link rate for mid-size payloads.
	cold := Fresh(0.08) // cwnd = 10
	size := 500e3       // ~345 segments, BDP at 18 Mbps/80 ms = ~124 segs
	got := EstimateThroughput(18, cold, size)
	if got >= 18 {
		t.Errorf("cold connection should see < link rate, got %v", got)
	}
	if got <= 0 {
		t.Errorf("throughput should be positive, got %v", got)
	}
}

func TestEstimateThroughputNeverExceedsGTBW(t *testing.T) {
	f := func(cwndRaw, sizeRaw uint16, gtbwRaw uint8) bool {
		s := Fresh(0.08)
		s.CWND = float64(cwndRaw%200) + 1
		s.SSThresh = 50
		size := float64(sizeRaw)*1000 + 1000
		gtbw := float64(gtbwRaw%20) + 0.5
		got := EstimateThroughput(gtbw, s, size)
		return got <= gtbw+1e-9 && got >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEstimateThroughputMonotoneInGTBWForLargePayload(t *testing.T) {
	// For payloads well above the BDP the estimate should track GTBW.
	s := Fresh(0.08)
	s.CWND = 2000
	s.SSThresh = 2000
	prev := 0.0
	for gtbw := 1.0; gtbw <= 10; gtbw += 1 {
		got := EstimateThroughput(gtbw, s, 100e6)
		if got < prev {
			t.Errorf("estimate decreased: %v -> %v at gtbw %v", prev, got, gtbw)
		}
		prev = got
	}
}

func TestEstimateThroughputSSRReducesThroughput(t *testing.T) {
	// Same connection, same payload: a long idle gap (triggering SSR)
	// must not increase estimated throughput.
	hot := Fresh(0.08)
	hot.CWND = 200
	hot.SSThresh = 10
	hot.LastSendGap = 0.01

	idle := hot
	idle.LastSendGap = 5

	size := 300e3
	tputHot := EstimateThroughput(8, hot, size)
	tputIdle := EstimateThroughput(8, idle, size)
	if tputIdle > tputHot+1e-9 {
		t.Errorf("SSR increased throughput: idle %v > hot %v", tputIdle, tputHot)
	}
	if tputIdle >= tputHot {
		t.Logf("note: SSR made no difference (hot %v, idle %v)", tputHot, tputIdle)
	}
}

func TestEstimateDownloadTimeConsistency(t *testing.T) {
	s := Fresh(0.08)
	size := 2e6
	tput := EstimateThroughput(5, s, size)
	dt := EstimateDownloadTime(5, s, size)
	want := size * 8 / (tput * 1e6)
	if math.Abs(dt-want) > 1e-9 {
		t.Errorf("EstimateDownloadTime = %v, want %v", dt, want)
	}
}

func TestEstimateDownloadTimeZeroBandwidth(t *testing.T) {
	s := Fresh(0.08)
	if got := EstimateDownloadTime(0, s, 1e6); !math.IsInf(got, 1) {
		t.Errorf("zero bandwidth download time = %v, want +Inf", got)
	}
}

func TestMbps(t *testing.T) {
	// 1 MB in 1 s = 8 Mbps.
	if got := Mbps(1e6, 1); got != 8 {
		t.Errorf("Mbps = %v, want 8", got)
	}
	if got := Mbps(1e6, 0); got != 0 {
		t.Errorf("Mbps with zero time = %v, want 0", got)
	}
}

// BenchmarkEstimatorDirect times one call of the estimator f — the
// inner loop of every emission table — swept along a capacity grid.
func BenchmarkEstimatorDirect(b *testing.B) {
	st := Fresh(0.16)
	grid := make([]float64, 24)
	for i := range grid {
		grid[i] = 0.5 * float64(i+1)
	}
	for i := 0; i < b.N; i++ {
		EstimateThroughput(grid[i%len(grid)], st, 1e6)
	}
}

// TestSaturationMatchesEstimator sweeps capacity finely up to the
// grid top for a spread of states and sizes: Saturation's test is
// monotone in capacity, holds at the top, and wherever it holds the
// estimator returns exactly the saturated rate. A state whose window
// stays the bottleneck up to the top is declined.
func TestSaturationMatchesEstimator(t *testing.T) {
	const top = 200.0
	fresh := Fresh(0.08)
	idle := fresh
	idle.CWND, idle.SSThresh, idle.LastSendGap = 600, 300, 2
	onePkt := State{CWND: 1, SSThresh: 1, MinRTT: 0.03, RTT: 0.03, RTO: 0.2}
	hot := Fresh(0.04)
	hot.CWND, hot.SSThresh = 2000, 2000
	for _, tc := range []struct {
		name      string
		st        State
		size      float64
		saturates bool // within 0–top Mbps
	}{
		{"fresh small", fresh, 60e3, true},
		{"fresh large", fresh, 1.5e6, true},
		{"idle restart", idle, 800e3, true},
		{"one-segment window", onePkt, 2e6, true},
		{"single flight", fresh, MSS * 10, true},
		{"hot", hot, 4e6, false},
	} {
		bdp, mbps, ok := Saturation(tc.st, tc.size, top)
		if ok != tc.saturates {
			t.Fatalf("%s: Saturation ok = %v, want %v (bdp %d, %v Mbps)", tc.name, ok, tc.saturates, bdp, mbps)
		}
		if !ok {
			continue
		}
		seen := false
		for g := 0.0; g <= top; g += 0.05 {
			past := g >= mbps && BDPSegments(g, tc.st.MinRTT) >= bdp
			if seen && !past {
				t.Fatalf("%s: saturation test not monotone at %v Mbps", tc.name, g)
			}
			seen = past
			if got := EstimateThroughput(g, tc.st, tc.size); past && math.Float64bits(got) != math.Float64bits(mbps) {
				t.Fatalf("%s: EstimateThroughput(%v) = %v past saturation (bdp %d), want %v", tc.name, g, got, bdp, mbps)
			}
		}
		if !(top >= mbps && BDPSegments(top, tc.st.MinRTT) >= bdp) {
			t.Errorf("%s: saturation test fails at the top", tc.name)
		}
	}
}

// TestSaturationDeclines lists the inputs Saturation refuses to vouch
// for; the caller then evaluates every capacity.
func TestSaturationDeclines(t *testing.T) {
	fresh := Fresh(0.08)
	mod := func(f func(s *State)) State { s := fresh; f(&s); return s }
	for name, tc := range map[string]struct {
		st        State
		size, top float64
	}{
		"zero size":              {fresh, 0, 100},
		"NaN size":               {fresh, math.NaN(), 100},
		"+Inf size":              {fresh, math.Inf(1), 100},
		"huge size":              {fresh, 1e15, 100},
		"zero min rtt":           {mod(func(s *State) { s.MinRTT = 0 }), 1e6, 100},
		"NaN min rtt":            {mod(func(s *State) { s.MinRTT = math.NaN() }), 1e6, 100},
		"sub-segment cwnd":       {mod(func(s *State) { s.CWND = 0.5 }), 1e6, 100},
		"NaN cwnd":               {mod(func(s *State) { s.CWND = math.NaN() }), 1e6, 100},
		"+Inf cwnd":              {mod(func(s *State) { s.CWND = math.Inf(1) }), 1e6, 100},
		"cwnd past the bound":    {mod(func(s *State) { s.CWND = 1e300 }), 1e6, 100},
		"top below saturation":   {fresh, 1.5e6, 50},
		"BDP at the top inexact": {mod(func(s *State) { s.MinRTT = 1e200 }), 1e6, 100},
		"NaN top":                {fresh, 1e6, math.NaN()},
	} {
		if _, _, ok := Saturation(tc.st, tc.size, tc.top); ok {
			t.Errorf("%s: Saturation vouched for %+v, size %v, top %v", name, tc.st, tc.size, tc.top)
		}
	}
}
