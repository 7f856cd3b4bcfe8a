package experiments

import (
	"fmt"
	"math"

	"veritas/internal/engine"
	"veritas/internal/fugu"
	"veritas/internal/mathx"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/stats"
	"veritas/internal/trace"
)

func init() {
	register("fig2a", "Download time vs chunk size under an adaptive ABR (non-monotonic)", fig2a)
	register("fig2b", "Fugu's prediction error on causal (forced-quality) queries", fig2b)
	register("fig2c", "Observed throughput vs payload size on a constant 18 Mbps link", fig2c)
}

// fig2aBuckets are the paper's chunk-size groups in MB.
var fig2aBuckets = []struct {
	Label  string
	Lo, Hi float64 // MB
}{
	{"<0.02", 0, 0.02},
	{"0.02-0.04", 0.02, 0.04},
	{"0.04-0.10", 0.04, 0.10},
	{"0.10-1.0", 0.10, 1.0},
	{"1.0-2.0", 1.0, 2.0},
	{"2.0-4.2", 2.0, 4.2},
}

// fig2aSessions streams Setting A over the poor+good trace mix and
// returns the per-chunk logs, shared by fig2a and fig2b.
func fig2aSessions(s Scale) ([]*player.SessionLog, error) {
	mix, err := poorGoodTraces(s.Seed+500, s.FuguTraces)
	if err != nil {
		return nil, err
	}
	return deployedLogs(s, mix)
}

// trainFugu trains the FuguNN download-time predictor on logs, the same
// way for both Fugu figures (2b and 12).
func trainFugu(s Scale, logs []*player.SessionLog) (*fugu.Predictor, error) {
	return fugu.TrainPredictor(fugu.BuildDataset(logs, fugu.DefaultK), fugu.PredictorConfig{
		Seed:  s.Seed,
		Train: fugu.TrainConfig{Epochs: 40, Seed: s.Seed + 1},
	})
}

func fig2a(s Scale) (*Table, error) {
	logs, err := fig2aSessions(s)
	if err != nil {
		return nil, err
	}
	byBucket := make([][]float64, len(fig2aBuckets))
	for _, log := range logs {
		for _, r := range log.Records {
			mb := r.SizeBytes / 1e6
			for bi, b := range fig2aBuckets {
				if mb >= b.Lo && mb < b.Hi {
					byBucket[bi] = append(byBucket[bi], r.DownloadSeconds())
					break
				}
			}
		}
	}
	t := &Table{
		ID: "fig2a",
		Title: fmt.Sprintf(
			"Download time (s) by chunk size bucket, MPC on %d poor + %d good traces",
			max(1, s.FuguTraces/2), max(1, s.FuguTraces/2)),
		Header: []string{"size (MB)", "n", "min", "q1", "median", "q3", "max", "mean"},
	}
	var medians []float64
	for bi, b := range fig2aBuckets {
		box := stats.Box(byBucket[bi])
		t.AddRow(b.Label, box.N, box.Min, box.Q1, box.Median, box.Q3, box.Max, box.Mean)
		medians = append(medians, box.Median)
	}
	// Shape check: with a linear size→time relationship medians would
	// rise monotonically; the adaptive ABR breaks that because small
	// chunks are chosen exactly when the network is poor.
	nonMono := false
	prev := math.Inf(-1)
	for _, m := range medians {
		if math.IsNaN(m) {
			continue
		}
		if m < prev {
			nonMono = true
		}
		prev = m
	}
	if nonMono {
		t.Notes = append(t.Notes, "SHAPE OK: download-time medians are non-monotonic in chunk size (paper Fig 2a)")
	} else {
		t.Notes = append(t.Notes, "SHAPE MISS: medians grew monotonically with size")
	}
	return t, nil
}

func fig2b(s Scale) (*Table, error) {
	logs, err := fig2aSessions(s)
	if err != nil {
		return nil, err
	}
	pred, err := trainFugu(s, logs)
	if err != nil {
		return nil, err
	}

	// Fresh poor trace: the ABR has been picking low qualities, so the
	// history is all small chunks. Ask the causal question for a forced
	// low- and a forced high-quality next chunk.
	poorSet, err := traces(poorLink, s.Seed+77_000, 1)
	if err != nil {
		return nil, err
	}
	poor, vid := poorSet[0], s.clip()
	poorLog, err := simulate(s, []engine.SessionSpec{deployed("fig2b", poor, vid, s.Seed+9)})
	if err != nil {
		return nil, err
	}
	log := poorLog[0]

	type agg struct{ actual, predicted []float64 }
	var low, high agg
	evalEvery := len(log.Records) / 8
	if evalEvery < 1 {
		evalEvery = 1
	}
	for n := fugu.DefaultK; n < len(log.Records); n += evalEvery {
		hist, err := fugu.HistoryFromLog(log, n, fugu.DefaultK)
		if err != nil {
			return nil, err
		}
		rec := log.Records[n]
		for _, q := range []struct {
			agg  *agg
			size float64
		}{
			{&low, vid.Size(rec.Index, 0)},
			{&high, vid.Size(rec.Index, vid.NumQualities()-1)},
		} {
			p, err := pred.Predict(hist, q.size)
			if err != nil {
				return nil, err
			}
			actual, err := forkedDownloadTime(rec, q.size, poor)
			if err != nil {
				return nil, err
			}
			q.agg.predicted = append(q.agg.predicted, p)
			q.agg.actual = append(q.agg.actual, actual)
		}
	}

	t := &Table{
		ID:     "fig2b",
		Title:  "Fugu on forced next-chunk qualities (poor network, low-quality history)",
		Header: []string{"next chunk", "actual mean (s)", "predicted mean (s)", "mean error (s)"},
	}
	lowErr := stats.Mean(low.predicted) - stats.Mean(low.actual)
	highErr := stats.Mean(high.predicted) - stats.Mean(high.actual)
	t.AddRow("Low quality", stats.Mean(low.actual), stats.Mean(low.predicted), lowErr)
	t.AddRow("High quality", stats.Mean(high.actual), stats.Mean(high.predicted), highErr)
	if math.Abs(lowErr) < math.Abs(highErr) && highErr < 0 {
		t.Notes = append(t.Notes,
			"SHAPE OK: Fugu is accurate for the low-quality chunk but underestimates the forced high-quality download (paper Fig 2b)")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"SHAPE MISS: low err %.3g, high err %.3g (expected small low error, large negative high error)", lowErr, highErr))
	}
	return t, nil
}

// forkedDownloadTime measures what downloading sizeBytes instead of the
// logged chunk would actually have taken, by restoring the logged TCP
// state at the chunk's start time.
func forkedDownloadTime(rec player.ChunkRecord, sizeBytes float64, gt *trace.Trace) (float64, error) {
	conn, err := netem.NewConn(testbedNet(1))
	if err != nil {
		return 0, err
	}
	conn.Restore(rec.TCP, rec.Start)
	end, err := conn.Download(rec.Start, sizeBytes, gt)
	if err != nil {
		return 0, err
	}
	return end - rec.Start, nil
}

func fig2c(s Scale) (*Table, error) {
	const gtbwMbps = 18
	gt := trace.Constant(gtbwMbps)
	// This is the paper's separate client–server experiment, not the
	// video testbed: a short path, so the 0.12–8 s send gaps straddle
	// the RTO and slow-start restart fires only sometimes — the source
	// of the mid-size variance the figure highlights.
	cfg := testbedNet(s.Seed)
	cfg.RTT = 0.030
	conn, err := netem.NewConn(cfg)
	if err != nil {
		return nil, err
	}
	rng := mathx.NewRand(s.Seed + 31)

	// Payloads of 2^1..2^12 KB with random 0.12–8 s inter-send gaps, as
	// in the paper's controlled experiment.
	perSize := 4 * s.TestTraces
	byLog2 := map[int][]float64{}
	now := 0.0
	for rep := 0; rep < perSize; rep++ {
		for l2 := 1; l2 <= 12; l2++ {
			size := math.Exp2(float64(l2)) * 1e3
			now += 0.12 + rng.Float64()*(8-0.12)
			end, mbps, err := conn.DownloadThroughput(now, size, gt)
			if err != nil {
				return nil, err
			}
			now = end
			byLog2[l2] = append(byLog2[l2], mbps)
		}
	}

	t := &Table{
		ID:     "fig2c",
		Title:  "Throughput (Mbps) by payload size on a constant 18 Mbps link",
		Header: []string{"log2 size (KB)", "n", "min", "median", "max", "mean", "stddev"},
	}
	var smallMed, bigMed, maxStd float64
	for l2 := 1; l2 <= 12; l2++ {
		xs := byLog2[l2]
		box := stats.Box(xs)
		sd := stats.StdDev(xs)
		if sd > maxStd {
			maxStd = sd
		}
		if l2 == 2 {
			smallMed = box.Median
		}
		if l2 == 12 {
			bigMed = box.Median
		}
		t.AddRow(l2, box.N, box.Min, box.Median, box.Max, box.Mean, sd)
	}
	if smallMed < gtbwMbps/3 && bigMed > gtbwMbps*0.8 {
		t.Notes = append(t.Notes,
			"SHAPE OK: small payloads observe far below GTBW, large payloads approach it (paper Fig 2c)")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"SHAPE MISS: median at 4 KB %.3g, at 4 MB %.3g (GTBW %v)", smallMed, bigMed, gtbwMbps))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"max per-size stddev %.3g Mbps (paper: high variance at intermediate sizes from slow-start restart)", maxStd))
	return t, nil
}
