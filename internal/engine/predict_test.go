package engine

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"veritas/internal/hmm"
	"veritas/internal/player"
	"veritas/internal/tcp"
)

// recordedLogs simulates one 300-chunk session per scenario and
// returns their logs.
func recordedLogs(t testing.TB) []*player.SessionLog {
	t.Helper()
	corpus, err := BuildCorpus(CorpusConfig{SessionsPer: 1, NumChunks: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus {
		corpus[i].SimulateOnly = true
	}
	res, err := Run(context.Background(), Config{}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	var logs []*player.SessionLog
	for _, s := range res.Sessions {
		logs = append(logs, s.Log)
	}
	return logs
}

// prefixSpec is an interventional session: the first n chunks of log
// and three queries about the chunk after them.
func prefixSpec(log *player.SessionLog, n int) SessionSpec {
	p := log.Prefix(n)
	last := p.Records[n-1]
	idle := last.TCP
	idle.LastSendGap = 2
	return SessionSpec{
		Log: p,
		Predict: []PredictQuery{
			{StartSecs: last.End, TCP: last.TCP, SizeBytes: 300e3},
			{StartSecs: last.End + 2, TCP: idle, SizeBytes: 4e6},
			{StartSecs: last.End + 60, TCP: idle, SizeBytes: 1.5e6},
		},
	}
}

// TestPredictOnlySessionsMatchFullAbduction: a session with queries and
// nothing else runs a Predictor, and its answers equal those of the
// full abduction, which the same session runs under KeepAbductions or
// beside a what-if arm — bit for bit, at every worker count.
func TestPredictOnlySessionsMatchFullAbduction(t *testing.T) {
	var corpus []SessionSpec
	for _, log := range recordedLogs(t) {
		for _, n := range []int{1, 2, 7, 60, 151, 300} {
			corpus = append(corpus, prefixSpec(log, n))
		}
	}
	ctx := context.Background()
	pred, err := Run(ctx, Config{Workers: 2}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := Run(ctx, Config{Workers: 1, KeepAbductions: true}, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Arms cost a replay per sample: a few sessions are enough.
	few := []SessionSpec{corpus[2], corpus[9], corpus[len(corpus)-1]}
	armed, err := Run(ctx, Config{Workers: 1}, few, testArms(300)[:1])
	if err != nil {
		t.Fatal(err)
	}
	same := func(label string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d predictions, want %d", label, len(got), len(want))
		}
		for q := range want {
			if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
				t.Fatalf("%s: prediction %d = %v, want the full abduction's %v", label, q, got[q], want[q])
			}
		}
	}
	for i := range corpus {
		if pred.Sessions[i].Abd != nil || kept.Sessions[i].Abd == nil {
			t.Fatalf("session %d: the predict-only run kept an abduction, or KeepAbductions did not", i)
		}
		same(kept.Sessions[i].ID, pred.Sessions[i].Predictions, kept.Sessions[i].Predictions)
	}
	for i, idx := range []int{2, 9, len(corpus) - 1} {
		same(armed.Sessions[i].ID, pred.Sessions[idx].Predictions, armed.Sessions[i].Predictions)
	}
}

// TestPredictOnlySessionBytesFlatInN: a predict-only session holds
// O(S) inference storage, so the bytes a one-session run allocates do
// not grow with the log: a 300-chunk prefix costs what a 60-chunk
// prefix of the same log costs, on the same capacity grid.
func TestPredictOnlySessionBytesFlatInN(t *testing.T) {
	log := recordedLogs(t)[0]
	bytesPerRun := func(n int) float64 {
		spec := prefixSpec(log, n)
		spec.Abduct.HMM = hmm.DefaultConfig(20) // one grid for both lengths
		corpus := []SessionSpec{spec}
		run := func() {
			if _, err := Run(context.Background(), Config{Workers: 1}, corpus, nil); err != nil {
				t.Fatal(err)
			}
		}
		run() // the grid's transition powers are process-wide: warm them
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	short, long := bytesPerRun(60), bytesPerRun(300)
	t.Logf("bytes per predict-only session: %.0f at 60 chunks, %.0f at 300", short, long)
	if long > short*1.1+1024 {
		t.Fatalf("a 300-chunk predict-only session allocates %.0f B, a 60-chunk one %.0f B: want them flat in N", long, short)
	}
}

// BenchmarkPredictSession is one interventional engine session: the
// Predictor of a 300-chunk recorded log answering three next-chunk
// queries, through a one-worker Run.
func BenchmarkPredictSession(b *testing.B) {
	corpus := []SessionSpec{prefixSpec(recordedLogs(b)[0], 300)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{Workers: 1}, corpus, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunRefusesUncheckedPredictQueries: a predict query is checked by
// the rule a log record is checked by — a finite non-negative start and
// size, a start within abduction's bound on δ-intervals, a size within
// its bound on a chunk, and a TCP state the estimator can run on — and
// Run refuses one that fails it by session and query index, before any
// session runs. Unchecked, a NaN window hangs the estimator, and the
// start bound is what caps the advance past the log at 2¹⁷ δ-intervals,
// each one step of a row through the transition matrix.
func TestRunRefusesUncheckedPredictQueries(t *testing.T) {
	st := tcp.Fresh(0.08)
	log := &player.SessionLog{BufferCap: 30, RTT: 0.08, ChunkSeconds: 4}
	for i := 0; i < 3; i++ {
		start := 4 * float64(i)
		log.Records = append(log.Records, player.ChunkRecord{
			Index: i, SizeBytes: 1e6, Start: start, End: start + 2, TCP: st, ThroughputMbps: 4,
		})
	}
	good := PredictQuery{StartSecs: 14, TCP: st, SizeBytes: 1e6}
	if _, err := Run(context.Background(), Config{}, []SessionSpec{{Log: log, Predict: []PredictQuery{good}}}, nil); err != nil {
		t.Fatalf("a checked query: %v", err)
	}
	with := func(f func(q *PredictQuery)) PredictQuery { q := good; f(&q); return q }
	for _, tc := range []struct {
		name, want string
		q          PredictQuery
	}{
		{"size past the cap", "size 2.68435457e+08 bytes is past", with(func(q *PredictQuery) { q.SizeBytes = 1<<28 + 1 })},
		{"negative start", "start time -1 s is not a finite non-negative number", with(func(q *PredictQuery) { q.StartSecs = -1 })},
		{"NaN size", "size NaN bytes is not a finite non-negative number", with(func(q *PredictQuery) { q.SizeBytes = math.NaN() })},
		{"+Inf start", "start time +Inf s is not a finite non-negative number", with(func(q *PredictQuery) { q.StartSecs = math.Inf(1) })},
		{"start far past the log", "start time 1e+06 s is past interval", with(func(q *PredictQuery) { q.StartSecs = 1e6 })},
		{"NaN cwnd", "cwnd NaN is not a finite number", with(func(q *PredictQuery) { q.TCP.CWND = math.NaN() })},
		{"sub-segment cwnd", "cwnd 0.5 < 1 segment", with(func(q *PredictQuery) { q.TCP.CWND = 0.5 })},
		{"+Inf ssthresh", "ssthresh +Inf is not a finite number", with(func(q *PredictQuery) { q.TCP.SSThresh = math.Inf(1) })},
	} {
		corpus := []SessionSpec{
			{Log: log, Predict: []PredictQuery{good}},
			{ID: "hostile", Log: log, Predict: []PredictQuery{good, tc.q}},
		}
		_, err := Run(context.Background(), Config{}, corpus, nil)
		if err == nil || !strings.Contains(err.Error(), "engine: session 1 (hostile): predict query 1: ") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Run = %v, want the refusal of session 1's query 1 (%q)", tc.name, err, tc.want)
		}
	}
}
