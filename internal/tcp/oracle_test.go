package tcp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// oracleEstimate is the estimator f as Algorithm 4 states it, one round
// at a time: EstimateThroughput before the window walk, kept as the
// differential oracle. ok is false where the loop has no answer to
// compare: it runs past maxRounds rounds, a flight leaves int's range
// (Go leaves that conversion to the implementation), or the count of
// segments sent wraps below int's range (a shrinking negative window
// would otherwise "finish" by wrapping round to a positive count).
func oracleEstimate(gtbwMbps float64, s State, sizeBytes float64, maxRounds int) (est float64, ok bool) {
	if sizeBytes <= 0 {
		return 0, true
	}
	if gtbwMbps <= 0 {
		return 0, true
	}
	if s.MinRTT <= 0 {
		return gtbwMbps, true
	}
	s.CWND, s.SSThresh = SlowStartRestart(s.CWND, s.SSThresh, s.LastSendGap, s.RTO)

	dataSeg := Segments(sizeBytes)
	bdpSeg := BDPSegments(gtbwMbps, s.MinRTT)

	if s.CWND >= float64(bdpSeg) {
		if dataSeg > bdpSeg {
			return gtbwMbps, true
		}
		return bytesPerSecToMbps(sizeBytes / s.MinRTT), true
	}

	rounds := 0
	sent := 0
	cwnd := s.CWND
	for sent < dataSeg {
		if rounds == maxRounds {
			return 0, false
		}
		flight := math.Min(cwnd, float64(bdpSeg))
		if !(flight >= math.MinInt64) || flight < 0 && sent < math.MinInt-int(flight) {
			return 0, false
		}
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
	est = bytesPerSecToMbps(sizeBytes / (float64(rounds) * s.MinRTT))
	return math.Min(est, gtbwMbps), true
}

// requireRowMatchesOracle checks EstimateRow over cells capacities
// i·eps, and EstimateThroughput at each, against the oracle bit for
// bit, skipping the cells the oracle cannot answer in maxRounds rounds;
// it reports how many cells it compared. The oracle at the top capacity
// is asked first: the walk runs no further than that cell's loop, so
// where it answers the row is quick to compute.
func requireRowMatchesOracle(t *testing.T, label string, st State, size, eps float64, cells, maxRounds int) int {
	t.Helper()
	if _, ok := oracleEstimate(float64(cells-1)*eps, st, size, maxRounds); !ok {
		return 0
	}
	row := make([]float64, cells)
	EstimateRow(row, eps, st, size)
	compared := 0
	for i, got := range row {
		c := float64(i) * eps
		want, ok := oracleEstimate(c, st, size, maxRounds)
		if !ok {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: EstimateRow cell %d (%v Mbps) = %v, oracle %v (state %+v, size %v)", label, i, c, got, want, st, size)
		}
		if one := EstimateThroughput(c, st, size); math.Float64bits(one) != math.Float64bits(want) {
			t.Fatalf("%s: EstimateThroughput(%v) = %v, oracle %v (state %+v, size %v)", label, c, one, want, st, size)
		}
		compared++
	}
	return compared
}

// TestEstimateThroughputMatchesOracle sweeps capacity finely, 0–200
// Mbps, for the states and payloads the estimator's edges sit on:
// windows and thresholds below one segment, a zero window, a BDP near
// 2⁵³, huge RTTs and windows, payloads up to 256 MiB, slow-start
// restart, and a non-positive RTT, size or capacity. Every cell equals
// the round-by-round loop bit for bit, by EstimateThroughput and
// EstimateRow alike.
func TestEstimateThroughputMatchesOracle(t *testing.T) {
	fresh := Fresh(0.08)
	mod := func(base State, f func(s *State)) State { f(&base); return base }
	onePkt := State{CWND: 1, SSThresh: 1, MinRTT: 0.03, RTT: 0.03, RTO: 0.2}
	hot := mod(Fresh(0.04), func(s *State) { s.CWND, s.SSThresh = 2000, 2000 })
	// A 200 Mbps link's BDP is 2⁵³ segments at this min RTT.
	rttBDP53 := float64(1<<53) * MSS * 8 / 200e6
	for _, tc := range []struct {
		name string
		st   State
		size float64
	}{
		{"fresh small", fresh, 60e3},
		{"fresh large", fresh, 1.5e6},
		{"idle restart", mod(fresh, func(s *State) { s.CWND, s.SSThresh, s.LastSendGap = 600, 300, 2 }), 800e3},
		{"one-segment window", onePkt, 2e6},
		{"one-segment window, 256 MiB", onePkt, 1 << 28},
		{"fresh, 256 MiB", fresh, 1 << 28},
		{"single flight", fresh, MSS * 10},
		{"hot", hot, 4e6},
		{"sub-segment cwnd", mod(fresh, func(s *State) { s.CWND = 0.5 }), 1e6},
		{"sub-segment cwnd and ssthresh", mod(fresh, func(s *State) { s.CWND, s.SSThresh = 0.3, 0.6 }), 1e6},
		{"sub-segment ssthresh", mod(fresh, func(s *State) { s.SSThresh = 0.25 }), 1e6},
		{"zero ssthresh", mod(fresh, func(s *State) { s.SSThresh = 0 }), 1e6},
		{"zero cwnd", mod(fresh, func(s *State) { s.CWND = 0 }), 1e6},
		{"zero cwnd and ssthresh", mod(fresh, func(s *State) { s.CWND, s.SSThresh = 0, 0 }), 1e6},
		{"negative cwnd above ssthresh", mod(fresh, func(s *State) { s.CWND, s.SSThresh = -3.5, -10 }), 30e3},
		{"cwnd 1e300", mod(fresh, func(s *State) { s.CWND = 1e300 }), 1e6},
		{"BDP near 2^53 at the top", mod(fresh, func(s *State) { s.MinRTT = rttBDP53 }), 1e6},
		{"BDP at 2^53, 256 MiB", mod(onePkt, func(s *State) { s.MinRTT = rttBDP53 }), 1 << 28},
		{"min rtt 1e17", Fresh(1e17), 1e6},
		{"min rtt 1e200", mod(fresh, func(s *State) { s.MinRTT = 1e200 }), 1e6},
		{"zero min rtt", mod(fresh, func(s *State) { s.MinRTT = 0 }), 1e6},
		{"negative min rtt", mod(fresh, func(s *State) { s.MinRTT = -1 }), 1e6},
		{"zero size", fresh, 0},
		{"negative size", fresh, -100},
	} {
		for _, eps := range []float64{0.05, 0.5, -0.5} {
			cells := int(200/math.Abs(eps)) + 1
			label := fmt.Sprintf("%s, ε %v", tc.name, eps)
			if n := requireRowMatchesOracle(t, label, tc.st, tc.size, eps, cells, 1<<18); n != cells {
				t.Errorf("%s: the oracle answered %d of %d cells", label, n, cells)
			}
		}
	}
}

// TestEstimateThroughputMatchesOracleOnRandomDraws is the differential
// on a million random draws: states with windows and thresholds from a
// fraction of a segment to past the BDP, restart on and off, RTTs from
// 1 ms to 2 s, payloads up to 256 MiB and capacities up to 200 Mbps,
// one EstimateThroughput call each; every thousandth draw also checks
// a whole row.
func TestEstimateThroughputMatchesOracleOnRandomDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	const draws = 1_000_000
	for d := 0; d < draws; d++ {
		rtt := logUniform(1e-3, 2)
		st := State{
			CWND: logUniform(0.5, 1e4), SSThresh: logUniform(0.5, 1e5),
			MinRTT: rtt, RTT: rtt, RTO: RTOFor(rtt), LastSendGap: logUniform(1e-3, 10) * float64(rng.Intn(2)),
		}
		size := logUniform(1, 1<<28)
		c := rng.Float64() * 200
		want, ok := oracleEstimate(c, st, size, 1<<20)
		if !ok {
			t.Fatalf("draw %d: the oracle ran out of rounds (state %+v, size %v, %v Mbps)", d, st, size, c)
		}
		if got := EstimateThroughput(c, st, size); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: EstimateThroughput(%v) = %v, oracle %v (state %+v, size %v)", d, c, got, want, st, size)
		}
		if d%1000 == 0 {
			requireRowMatchesOracle(t, fmt.Sprintf("draw %d", d), st, size, 0.5, 1+rng.Intn(400), 1<<18)
		}
	}
}

// FuzzEstimateRow checks EstimateRow, and EstimateThroughput at each
// cell, against the round-by-round oracle bit for bit, on every finite
// state, size and grid where the oracle answers.
func FuzzEstimateRow(f *testing.F) {
	fresh := Fresh(0.08)
	f.Add(fresh.CWND, fresh.SSThresh, fresh.MinRTT, fresh.RTO, 0.0, 1.5e6, 0.5, uint16(201))
	f.Add(600.0, 300.0, 0.08, 0.2, 2.0, 800e3, 0.25, uint16(161))
	f.Add(1.0, 1.0, 0.03, 0.2, 0.0, float64(1<<28), 0.5, uint16(41))
	f.Add(0.5, 0.25, 0.05, 0.2, 0.0, 1e6, 0.5, uint16(21))
	f.Add(0.0, 10.0, 0.05, 0.2, 0.0, 1e5, 0.5, uint16(21))
	f.Add(2000.0, 2000.0, 0.04, 0.2, 0.0, 4e6, 0.5, uint16(21))
	f.Add(10.0, 1e300, 1e200, 0.2, 0.0, 1e6, 0.5, uint16(3))
	f.Add(-43.0, 10.0, 0.05, 0.2, 0.0, 1e5, 0.5, uint16(21)) // the oracle's count wraps
	f.Fuzz(func(t *testing.T, cwnd, ssthresh, minRTT, rto, gap, size, eps float64, cells uint16) {
		for _, v := range []float64{cwnd, ssthresh, minRTT, rto, gap, size, eps} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		st := State{CWND: cwnd, SSThresh: ssthresh, MinRTT: minRTT, RTT: minRTT, RTO: rto, LastSendGap: gap}
		requireRowMatchesOracle(t, "fuzz", st, size, eps, 1+int(cells%400), 1<<14)
	})
}

// TestEstimatorReturnsOnNonFiniteFields: a NaN or ±Inf in any field of
// the state, in the capacity, the grid step or the size, alone or with
// slow-start restart due, ends the walk (the parent's loop never
// returned on a NaN window, and restart never left an infinite one).
// EstimateRow equals EstimateThroughput cell by cell there too.
func TestEstimatorReturnsOnNonFiniteFields(t *testing.T) {
	idle := Fresh(0.08)
	idle.CWND, idle.LastSendGap = 600, 2
	fields := []struct {
		name string
		set  func(s *State, v float64)
	}{
		{"cwnd", func(s *State, v float64) { s.CWND = v }},
		{"ssthresh", func(s *State, v float64) { s.SSThresh = v }},
		{"min rtt", func(s *State, v float64) { s.MinRTT = v }},
		{"rtt", func(s *State, v float64) { s.RTT = v }},
		{"rto", func(s *State, v float64) { s.RTO = v }},
		{"last send gap", func(s *State, v float64) { s.LastSendGap = v }},
	}
	type call struct {
		name      string
		st        State
		gtbw, eps float64
		size      float64
	}
	var calls []call
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for bi, base := range []State{Fresh(0.08), idle} {
			for _, f := range fields {
				st := base
				f.set(&st, v)
				calls = append(calls, call{fmt.Sprintf("base %d, %s %v", bi, f.name, v), st, 5, 0.5, 1e6})
			}
			calls = append(calls,
				call{fmt.Sprintf("base %d, capacity %v", bi, v), base, v, 0.5, 1e6},
				call{fmt.Sprintf("base %d, grid step %v", bi, v), base, 5, v, 1e6},
				call{fmt.Sprintf("base %d, size %v", bi, v), base, 5, 0.5, v})
		}
	}
	for _, c := range calls {
		done := make(chan struct{})
		row := make([]float64, 21)
		go func() {
			defer close(done)
			EstimateThroughput(c.gtbw, c.st, c.size)
			EstimateRow(row, c.eps, c.st, c.size)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the estimator did not return within 10 s", c.name)
		}
		for i, got := range row {
			if want := EstimateThroughput(float64(i)*c.eps, c.st, c.size); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: EstimateRow cell %d = %v, EstimateThroughput %v", c.name, i, got, want)
			}
		}
	}
}

// BenchmarkEstimateRow times one emission row's predictions: the
// default grid of a session whose throughputs stay under 6.7 Mbps (ε
// 0.5 Mbps up to 10 Mbps, 21 cells) at a logged mid-session state, a
// window past its slow-start threshold after a short idle gap, and a
// 1.2 MB chunk.
func BenchmarkEstimateRow(b *testing.B) {
	st := State{CWND: 38, SSThresh: 27, MinRTT: 0.08, RTT: 0.09, RTO: 0.2, LastSendGap: 0.15}
	row := make([]float64, 21)
	for i := 0; i < b.N; i++ {
		EstimateRow(row, 0.5, st, 1.2e6)
	}
}
