package abduction

import (
	"math"
	"math/rand"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/trace"
)

// predictQueries are the interventional queries a check asks of one
// log: the next chunk at, before and well after the last chunk's end,
// over the last chunk's own state, an idle restart and a fresh
// connection, for a small and a large chunk.
func predictQueries(log *player.SessionLog) []struct {
	start float64
	st    tcp.State
	size  float64
} {
	last := log.Records[len(log.Records)-1]
	idle := last.TCP
	idle.LastSendGap = 3
	var qs []struct {
		start float64
		st    tcp.State
		size  float64
	}
	for _, start := range []float64{last.End, last.Start - 30, last.End + 2, last.End + 600} {
		for _, st := range []tcp.State{last.TCP, idle, tcp.Fresh(0.08)} {
			for _, size := range []float64{60e3, 4e6} {
				qs = append(qs, struct {
					start float64
					st    tcp.State
					size  float64
				}{start, st, size})
			}
		}
	}
	return qs
}

// requirePredictorMatchesAbduct is the differential check of a
// Predictor against the full abduction, its oracle: the same error, or
// the same last Viterbi state and every prediction bit for bit — for
// NewPredictor and for Arena.Predictor through an arena that abducted
// another log first.
func requirePredictorMatchesAbduct(t *testing.T, label string, log, other *player.SessionLog, cfg Config) {
	t.Helper()
	abd, wantErr := Abduct(log, cfg)
	var ar Arena
	if _, err := ar.Abduct(other, Config{NumSamples: 2}); err != nil {
		t.Fatalf("%s: warming the arena: %v", label, err)
	}
	fresh, err1 := NewPredictor(log, cfg)
	recycled, err2 := ar.Predictor(log, cfg)
	for _, got := range []error{err1, err2} {
		if (got == nil) != (wantErr == nil) || got != nil && got.Error() != wantErr.Error() {
			t.Fatalf("%s: predictor error %v, want Abduct's %v", label, got, wantErr)
		}
	}
	if wantErr != nil {
		return
	}
	want := abd.last
	for _, p := range []*Predictor{fresh, recycled} {
		if p.state != want {
			t.Fatalf("%s: last state %d, want Abduct's %d", label, p.state, want)
		}
		for _, q := range predictQueries(log) {
			g, w := p.PredictDownloadTime(q.start, q.st, q.size), abd.PredictDownloadTime(q.start, q.st, q.size)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: PredictDownloadTime(%v, %+v, %v) = %v, want Abduct's %v", label, q.start, q.st, q.size, g, w)
			}
		}
	}
}

// TestPredictorMatchesAbduct runs every prefix of a 300-chunk session
// over a varying trace, and a stride of prefixes of a session over a
// constant one, under the paper's config and with FitTransitions and
// IgnoreTCPState each on.
func TestPredictorMatchesAbduct(t *testing.T) {
	varying, err := trace.FromSteps(5, []float64{6, 2, 0.5, 4, 9, 3, 1, 7, 2, 5, 8, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	logs := []*player.SessionLog{runSession(t, varying, abr.NewMPC()), runSession(t, trace.Constant(4), abr.NewMPC())}
	for li, log := range logs {
		if len(log.Records) < 100 {
			t.Fatalf("log %d has %d chunks", li, len(log.Records))
		}
		stride := 1 + li*13
		for n := 1; n <= len(log.Records); n += stride {
			prefix := log.Prefix(n)
			requirePredictorMatchesAbduct(t, "paper", prefix, logs[1-li], Config{})
			if n%10 == 1 {
				requirePredictorMatchesAbduct(t, "fit", prefix, logs[1-li], Config{FitTransitions: 2, NumSamples: 1})
				requirePredictorMatchesAbduct(t, "no-tcp", prefix, logs[1-li], Config{IgnoreTCPState: true})
			}
		}
	}
}

// TestPredictorErrorsMatchAbduct: an empty log, an out-of-order one,
// a hostile TCP state, a grid-sizing throughput and a negative sample
// count are refused with Abduct's error.
func TestPredictorErrorsMatchAbduct(t *testing.T) {
	good := runSession(t, trace.Constant(4), abr.NewMPC()).Prefix(40)
	outOfOrder := *good
	outOfOrder.Records = append([]player.ChunkRecord(nil), good.Records...)
	outOfOrder.Records[20].Start = outOfOrder.Records[10].Start
	badTCP := *good
	badTCP.Records = append([]player.ChunkRecord(nil), good.Records...)
	badTCP.Records[7].TCP.CWND = 0.5
	huge := *good
	huge.Records = append([]player.ChunkRecord(nil), good.Records...)
	huge.Records[3].ThroughputMbps = 1e300
	for _, c := range []struct {
		name string
		log  *player.SessionLog
		cfg  Config
	}{
		{"nil log", nil, Config{}},
		{"no records", &player.SessionLog{}, Config{}},
		{"out of order", &outOfOrder, Config{}},
		{"out of order, fit", &outOfOrder, Config{FitTransitions: 1}},
		{"hostile tcp", &badTCP, Config{}},
		{"hostile tcp ignored", &badTCP, Config{IgnoreTCPState: true}},
		{"grid", &huge, Config{}},
		{"negative samples", good, Config{NumSamples: -1}},
		{"one interval, fit", good.Prefix(1), Config{FitTransitions: 1}},
	} {
		_, wantErr := Abduct(c.log, c.cfg)
		_, err1 := NewPredictor(c.log, c.cfg)
		_, err2 := (&Arena{}).Predictor(c.log, c.cfg)
		if c.name == "hostile tcp ignored" {
			if wantErr != nil || err1 != nil || err2 != nil {
				t.Fatalf("%s: errors %v, %v, %v; IgnoreTCPState replaces the state", c.name, wantErr, err1, err2)
			}
			continue
		}
		if wantErr == nil {
			t.Fatalf("%s: Abduct accepted the log", c.name)
		}
		for _, err := range []error{err1, err2} {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: predictor error %v, want Abduct's %v", c.name, err, wantErr)
			}
		}
	}
}

// TestPredictorOutlivesItsArena: a Predictor keeps nothing of the arena
// that built it, so the arena's next sessions leave its answers as
// they were, while the Abduction the Predictor's build overwrote fails
// loudly.
func TestPredictorOutlivesItsArena(t *testing.T) {
	a := runSession(t, trace.Constant(4), abr.NewMPC())
	b := runSession(t, trace.Constant(1.5), abr.NewMPC())
	var ar Arena
	abd, err := ar.Abduct(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ar.Predictor(a, Config{FitTransitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abd.Counterfactual(Setting{}); err != ErrArenaReused {
		t.Fatalf("Abduction after a Predictor reused its arena: %v, want ErrArenaReused", err)
	}
	var before []float64
	for _, q := range predictQueries(a) {
		before = append(before, p.PredictDownloadTime(q.start, q.st, q.size))
	}
	if _, err := ar.Abduct(b, Config{FitTransitions: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Predictor(b, Config{}); err != nil {
		t.Fatal(err)
	}
	for i, q := range predictQueries(a) {
		if got := p.PredictDownloadTime(q.start, q.st, q.size); math.Float64bits(got) != math.Float64bits(before[i]) {
			t.Fatalf("query %d after the arena's next sessions: %v, want %v", i, got, before[i])
		}
	}
}

// fuzzLog builds a log of n chunks from rng: start gaps from 0 to 12 s
// (several chunks per δ-interval, and gaps of several intervals),
// throughputs with zeros among them, ladder-like sizes and TCP states
// from a fresh connection to a long-idle one. hostile, when non-zero,
// plants one value a log may carry that the estimator cannot take.
func fuzzLog(rng *rand.Rand, n int, hostile uint8) *player.SessionLog {
	log := &player.SessionLog{BufferCap: 5, RTT: 0.16, ChunkSeconds: 4, ABRName: "fuzz"}
	start := rng.Float64() * 10
	for i := 0; i < n; i++ {
		st := tcp.State{
			CWND:        1 + rng.Float64()*200,
			SSThresh:    1 + rng.Float64()*300,
			MinRTT:      0.01 + rng.Float64()*0.3,
			LastSendGap: []float64{0, 0, rng.Float64(), rng.Float64() * 8}[rng.Intn(4)],
		}
		st.RTT = st.MinRTT * (1 + rng.Float64())
		st.RTO = tcp.RTOFor(st.RTT)
		size := []float64{60e3, 300e3, 1.5e6, 4e6, 9e6}[rng.Intn(5)]
		mbps := rng.Float64() * 20
		if rng.Intn(8) == 0 {
			mbps = 0
		}
		dl := 0.05 + rng.Float64()*6
		log.Records = append(log.Records, player.ChunkRecord{
			Index: i, SizeBytes: size, Start: start, End: start + dl, TCP: st, ThroughputMbps: mbps,
		})
		start += []float64{0, 0.5, 4, 4.2, 12}[rng.Intn(5)]
	}
	if hostile != 0 {
		r := &log.Records[rng.Intn(n)]
		switch hostile % 8 {
		case 1:
			r.TCP.CWND = 0.5
		case 2:
			r.TCP.SSThresh = math.Inf(1)
		case 3:
			r.TCP.MinRTT = math.NaN()
		case 4:
			r.SizeBytes = 1e9
		case 5:
			r.ThroughputMbps = 1e300
		case 6:
			r.Start = -1
		case 7:
			r.End = r.Start - 1
		default:
			r.TCP.CWND = 0
		}
	}
	return log
}

// FuzzPredictMatchesAbduct drives the differential check with random
// logs of 1–300 chunks: zero throughputs, hostile TCP states and other
// refused values, FitTransitions and IgnoreTCPState on and off, and a
// negative sample count. Predictor and Abduct must fail with the same
// error or agree on the last state and every prediction bit for bit.
func FuzzPredictMatchesAbduct(f *testing.F) {
	for _, s := range []struct {
		seed           int64
		n              uint16
		flags, hostile uint8
	}{
		{1, 0, 0, 0}, {2, 1, 0, 0}, {3, 59, 0, 0}, {4, 299, 0, 0}, {5, 120, 1, 0},
		{6, 80, 2, 0}, {7, 80, 3, 0}, {8, 40, 0, 1}, {9, 40, 2, 1}, {10, 40, 0, 4},
		{11, 40, 0, 5}, {12, 40, 4, 0}, {13, 3, 1, 0}, {14, 40, 0, 6}, {15, 40, 1, 3},
	} {
		f.Add(s.seed, s.n, s.flags, s.hostile)
	}
	other := fuzzLog(rand.New(rand.NewSource(0)), 50, 0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, flags, hostile uint8) {
		log := fuzzLog(rand.New(rand.NewSource(seed)), 1+int(n)%300, hostile)
		cfg := Config{NumSamples: 2, Seed: seed}
		if flags&1 != 0 {
			cfg.FitTransitions = 1 + int(flags>>4)%2
		}
		cfg.IgnoreTCPState = flags&2 != 0
		if flags&4 != 0 {
			cfg.NumSamples = -1
		}
		requirePredictorMatchesAbduct(t, "fuzz", log, other, cfg)
	})
}
