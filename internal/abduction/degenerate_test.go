package abduction

import (
	"math"
	"strings"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/hmm"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/trace"
)

// Degenerate-input coverage for the abduction entry points: empty and
// single-chunk logs must either error cleanly or produce finite
// results — never NaN/Inf escapes from the inference hot path.

func singleChunkLog() *player.SessionLog {
	st := tcp.Fresh(0.080)
	st.CWND = 800
	st.SSThresh = 800
	return &player.SessionLog{
		Records: []player.ChunkRecord{{
			Index:          0,
			SizeBytes:      2e6,
			Start:          0.5,
			End:            3.0,
			TCP:            st,
			ThroughputMbps: 2e6 * 8 / 1e6 / 2.5,
		}},
		BufferCap:    5,
		RTT:          0.080,
		ChunkSeconds: 4,
	}
}

// hostileLog is a three-chunk log whose last record (index 2) has been
// edited by mutate — what `veritas abduct -log` or a fleet's
// SessionSpec.Log can be handed from outside.
func hostileLog(mutate func(r *player.ChunkRecord)) *player.SessionLog {
	log := singleChunkLog()
	first := log.Records[0]
	for i := 1; i < 3; i++ {
		r := first
		r.Index = i
		r.Start += 4 * float64(i)
		r.End += 4 * float64(i)
		log.Records = append(log.Records, r)
	}
	mutate(&log.Records[2])
	return log
}

// hostileRecords are the numbers a log must not be trusted with. Each
// is refused with an error naming record 2; at PR 22 NaN came back as
// err == nil with an all-NaN posterior, +Inf and 1e300 panicked in
// hmm.New (makeslice: len out of range), 1e6 Mbps asked for a
// 9·10¹²-cell transition matrix, and a start time of 1e18 s sent
// PowerCache on a 2·10¹⁷-step walk. At PR 23 nothing looked at End —
// Abduct accepted the log and the Baseline trace of Counterfactual was
// sized by it — or at record order.
var hostileRecords = []hostileRecord{
	{"NaN throughput", func(r *player.ChunkRecord) { r.ThroughputMbps = math.NaN() }},
	{"+Inf throughput", func(r *player.ChunkRecord) { r.ThroughputMbps = math.Inf(1) }},
	{"negative throughput", func(r *player.ChunkRecord) { r.ThroughputMbps = -3 }},
	{"NaN size", func(r *player.ChunkRecord) { r.SizeBytes = math.NaN() }},
	{"+Inf size", func(r *player.ChunkRecord) { r.SizeBytes = math.Inf(1) }},
	{"negative size", func(r *player.ChunkRecord) { r.SizeBytes = -1 }},
	{"NaN start", func(r *player.ChunkRecord) { r.Start = math.NaN() }},
	{"+Inf start", func(r *player.ChunkRecord) { r.Start = math.Inf(1) }},
	{"negative start", func(r *player.ChunkRecord) { r.Start = -5 }},
	{"absurd start", func(r *player.ChunkRecord) { r.Start = 1e18 }},
	{"start past int64 intervals", func(r *player.ChunkRecord) { r.Start = 1e300 }},
	{"NaN end", func(r *player.ChunkRecord) { r.End = math.NaN() }},
	{"+Inf end", func(r *player.ChunkRecord) { r.End = math.Inf(1) }},
	{"negative end", func(r *player.ChunkRecord) { r.End = -5 }},
	{"end before start", func(r *player.ChunkRecord) { r.End = r.Start - 0.25 }},
	{"absurd end", func(r *player.ChunkRecord) { r.End = 1e12 }},
	{"end past int64 seconds", func(r *player.ChunkRecord) { r.End = 1e300 }},
	{"out of time order", func(r *player.ChunkRecord) { r.Start, r.End = 1, 2 }},
}

type hostileRecord struct {
	name   string
	mutate func(r *player.ChunkRecord)
}

// estimatorRecords are the numbers only the throughput estimator reads,
// refused by Observations and Abduct but not by BaselineTrace, which
// reads neither. A window below one segment makes the estimator send one
// segment per round in every cell, an absurd size multiplies the rounds,
// and a non-finite field can stall slow-start restart.
var estimatorRecords = []hostileRecord{
	{"1 GB size", func(r *player.ChunkRecord) { r.SizeBytes = 1e9 }},
	{"zero cwnd", func(r *player.ChunkRecord) { r.TCP.CWND = 0 }},
	{"sub-segment cwnd", func(r *player.ChunkRecord) { r.TCP.CWND = 0.5 }},
	{"zero ssthresh", func(r *player.ChunkRecord) { r.TCP.SSThresh = 0 }},
	{"NaN cwnd", func(r *player.ChunkRecord) { r.TCP.CWND = math.NaN() }},
	{"+Inf ssthresh", func(r *player.ChunkRecord) { r.TCP.SSThresh = math.Inf(1) }},
	{"NaN min rtt", func(r *player.ChunkRecord) { r.TCP.MinRTT = math.NaN() }},
	{"-Inf rtt", func(r *player.ChunkRecord) { r.TCP.RTT = math.Inf(-1) }},
	{"+Inf rto", func(r *player.ChunkRecord) { r.TCP.RTO = math.Inf(1) }},
	{"NaN last send gap", func(r *player.ChunkRecord) { r.TCP.LastSendGap = math.NaN() }},
}

func TestObservationsDegenerateInputs(t *testing.T) {
	good := singleChunkLog()
	// Zero is a legal throughput, size and start time — of the first
	// record: a later record starting at 0 would be out of time order.
	zero := singleChunkLog()
	zero.Records[0].ThroughputMbps, zero.Records[0].SizeBytes, zero.Records[0].Start = 0, 0, 0
	type testCase struct {
		name    string
		log     *player.SessionLog
		delta   float64
		wantErr string // substring; "" means success
	}
	cases := []testCase{
		{"nil log", nil, 5, "empty"},
		{"empty records", &player.SessionLog{}, 5, "empty"},
		{"zero delta", good, 0, "delta"},
		{"negative delta", good, -1, "delta"},
		{"single chunk", good, 5, ""},
		{"zero throughput, size and start", zero, 5, ""},
	}
	for _, h := range append(hostileRecords, estimatorRecords...) {
		cases = append(cases, testCase{h.name, hostileLog(h.mutate), 5, "record 2"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs, err := Observations(tc.log, tc.delta)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want an error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(obs) != len(tc.log.Records) {
				t.Fatalf("%d observations for %d records", len(obs), len(tc.log.Records))
			}
		})
	}
}

func TestAbductDegenerateLogs(t *testing.T) {
	type testCase struct {
		name    string
		log     *player.SessionLog
		cfg     Config
		wantErr string
	}
	cases := []testCase{
		{"nil log", nil, Config{}, "empty"},
		{"empty records", &player.SessionLog{}, Config{}, "empty"},
		// Finite and non-negative, so only the grid bound can refuse
		// them — still naming the record that sized the grid.
		{"1e300 Mbps", hostileLog(func(r *player.ChunkRecord) { r.ThroughputMbps = 1e300 }), Config{}, "record 2"},
		{"1e6 Mbps", hostileLog(func(r *player.ChunkRecord) { r.ThroughputMbps = 1e6 }), Config{}, "record 2"},
		{"one state past the grid bound", hostileLog(func(r *player.ChunkRecord) { r.ThroughputMbps = 667 }), Config{}, "record 2"},
	}
	for _, h := range append(hostileRecords, estimatorRecords...) {
		cases = append(cases,
			testCase{h.name, hostileLog(h.mutate), Config{}, "record 2"},
			testCase{h.name + ", fitted transitions", hostileLog(h.mutate), Config{FitTransitions: 1}, "record 2"})
	}
	// The ablation replaces the logged state but keeps its min RTT.
	cases = append(cases,
		testCase{"NaN min rtt, TCP state ignored", hostileLog(func(r *player.ChunkRecord) { r.TCP.MinRTT = math.NaN() }), Config{IgnoreTCPState: true}, "record 2: tcp: min rtt NaN"},
		testCase{"1 GB size, TCP state ignored", hostileLog(func(r *player.ChunkRecord) { r.SizeBytes = 1e9 }), Config{IgnoreTCPState: true}, "record 2: size"})
	// Five 1 GB chunks on a zero window: a quarter of a second of
	// estimator rounds if they reached inference, and size times records
	// more for longer logs. Refused at the first record instead.
	gigabytes := singleChunkLog()
	gigabytes.Records[0].SizeBytes, gigabytes.Records[0].TCP.CWND = 1e9, 0
	for i := 1; i < 5; i++ {
		r := gigabytes.Records[0]
		r.Index, r.Start, r.End = i, r.Start+4*float64(i), r.End+4*float64(i)
		gigabytes.Records = append(gigabytes.Records, r)
	}
	cases = append(cases, testCase{"five 1 GB chunks on a zero window", gigabytes, Config{}, "record 0"})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Abduct(tc.log, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("want an error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
	// The states the ablation overwrites are not refused.
	for _, mutate := range []func(r *player.ChunkRecord){
		func(r *player.ChunkRecord) { r.TCP.CWND = 0 },
		func(r *player.ChunkRecord) { r.TCP.SSThresh = math.Inf(1) },
		func(r *player.ChunkRecord) { r.TCP.LastSendGap = math.NaN() },
	} {
		if _, err := Abduct(hostileLog(mutate), Config{IgnoreTCPState: true}); err != nil {
			t.Errorf("TCP state ignored, yet refused: %v", err)
		}
	}
	// A caller who fixed the grid gets an observation far above it
	// clamped by the emission model, not refused.
	cfg := Config{HMM: hmm.DefaultConfig(10)}
	a, err := Abduct(hostileLog(func(r *player.ChunkRecord) { r.ThroughputMbps = 1e6 }), cfg)
	if err != nil {
		t.Fatalf("fixed grid, observation above it: %v", err)
	}
	for n := 0; n < a.Posterior.Len(); n++ {
		for _, v := range a.Posterior.Gamma(n) {
			if math.IsNaN(v) {
				t.Fatalf("NaN in the posterior of chunk %d", n)
			}
		}
	}
}

// TestAbductSingleChunkLog runs the full pipeline on the smallest legal
// session: one chunk means no transitions, a single-row posterior and no
// chunk pair to normalise — every edge of the slab arithmetic.
func TestAbductSingleChunkLog(t *testing.T) {
	a, err := Abduct(singleChunkLog(), Config{NumSamples: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ViterbiPath) != 1 {
		t.Fatalf("Viterbi path length %d, want 1", len(a.ViterbiPath))
	}
	if a.Posterior.Len() != 1 {
		t.Fatalf("posterior covers %d chunks, want 1", a.Posterior.Len())
	}
	if math.IsNaN(a.Posterior.LogLikelihood) {
		t.Error("single-chunk log-likelihood is NaN")
	}
	var sum float64
	for _, v := range a.Posterior.Gamma(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in single-chunk posterior")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("single-chunk Gamma sums to %v", sum)
	}
	if len(a.SampledPaths) != 3 {
		t.Fatalf("%d sampled paths, want 3", len(a.SampledPaths))
	}
	for _, p := range a.SampledPaths {
		if len(p) != 1 {
			t.Fatal("sampled path length != 1")
		}
	}
	tr := a.MostLikelyTrace()
	if v := tr.At(0); math.IsNaN(v) || v < 0 {
		t.Errorf("most-likely trace value %v", v)
	}
	// The interventional query must stay finite from one chunk of
	// evidence, including with a degenerate (dead-link) TCP state.
	if d := a.PredictDownloadTime(10, singleChunkLog().Records[0].TCP, 1e6); math.IsNaN(d) || d <= 0 {
		t.Errorf("predicted download time %v", d)
	}
	if d := a.PredictDownloadTime(10, tcp.State{}, 0); math.IsNaN(d) || d != 0 {
		t.Errorf("zero-size prediction %v, want 0", d)
	}
}

// TestAbductScratchReuseMatchesFresh abducts two different sessions
// through one shared arena and checks each result is bit-identical to a
// fresh-arena run — the abduction-layer face of the Scratch contract.
func TestAbductScratchReuseMatchesFresh(t *testing.T) {
	gtA, err := trace.Generate(trace.DefaultFCC(3))
	if err != nil {
		t.Fatal(err)
	}
	logA := runSession(t, gtA, abr.NewMPC())
	logB := logA.Prefix(7) // much smaller second session on the dirty arena

	sc := hmm.NewScratch()
	for _, log := range []*player.SessionLog{logA, logB} {
		shared, err := Abduct(log, Config{NumSamples: 2, Seed: 4, Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Abduct(log, Config{NumSamples: 2, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if shared.Posterior.LogLikelihood != fresh.Posterior.LogLikelihood {
			t.Error("shared-arena log-likelihood differs from fresh run")
		}
		for i := range fresh.ViterbiPath {
			if shared.ViterbiPath[i] != fresh.ViterbiPath[i] {
				t.Fatalf("Viterbi path differs at chunk %d", i)
			}
		}
		for s := range fresh.SampledPaths {
			for i := range fresh.SampledPaths[s] {
				if shared.SampledPaths[s][i] != fresh.SampledPaths[s][i] {
					t.Fatalf("sample %d differs at chunk %d", s, i)
				}
			}
		}
	}
}
