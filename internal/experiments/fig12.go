package experiments

import (
	"fmt"
	"math"

	"veritas/internal/abduction"
	"veritas/internal/abr"
	"veritas/internal/engine"
	"veritas/internal/fugu"
	"veritas/internal/stats"
)

func init() {
	register("fig12", "Interventional download-time prediction: FuguNN vs Veritas", fig12)
}

// fig12 reproduces §4.4: FuguNN is trained on MPC sessions over traces
// spanning 0.5–10 Mbps, then both FuguNN and Veritas predict chunk
// download times on sessions where bitrates were chosen at random —
// chunk sequences the deployed ABR would never produce. FuguNN's
// associational model underestimates; Veritas abduces the GTBW from the
// session prefix and stays near the diagonal.
func fig12(s Scale) (*Table, error) {
	trainTraces, err := traces(wideLink, s.Seed+20_000, s.FuguTraces)
	if err != nil {
		return nil, err
	}
	logs, err := deployedLogs(s, trainTraces)
	if err != nil {
		return nil, err
	}
	pred, err := trainFugu(s, logs)
	if err != nil {
		return nil, err
	}

	testTraces, err := traces(wideLink, s.Seed+30_000, s.TestTraces)
	if err != nil {
		return nil, err
	}
	clip := s.clip()
	test := make([]engine.SessionSpec, len(testTraces))
	for i, gt := range testTraces {
		seed := s.Seed + int64(i)*7
		test[i] = deployed(fmt.Sprintf("sim-%03d", i), gt, clip, s.Seed+int64(1000+i))
		test[i].NewABR = func() abr.Algorithm { return abr.NewRandom(seed) }
	}
	testLogs, err := simulate(s, test)
	if err != nil {
		return nil, err
	}

	// Every sampled prefix becomes one engine session: a pre-recorded
	// log to invert plus a single interventional query — the per-prefix
	// abductions were the serial bottleneck of this figure.
	type point struct{ actual, fuguP, veritasP float64 }
	var pts []point
	var specs []engine.SessionSpec
	for _, log := range testLogs {
		step := len(log.Records) / 10
		if step < 1 {
			step = 1
		}
		for n := fugu.DefaultK; n < len(log.Records); n += step {
			rec := log.Records[n]
			hist, err := fugu.HistoryFromLog(log, n, fugu.DefaultK)
			if err != nil {
				return nil, err
			}
			fp, err := pred.Predict(hist, rec.SizeBytes)
			if err != nil {
				return nil, err
			}
			pts = append(pts, point{actual: rec.DownloadSeconds(), fuguP: fp})
			specs = append(specs, engine.SessionSpec{
				ID:      fmt.Sprintf("prefix-%03d", len(specs)),
				Log:     log.Prefix(n),
				Abduct:  abduction.Config{NumSamples: 1, Seed: s.Seed + int64(n)},
				Predict: []engine.PredictQuery{{StartSecs: rec.Start, TCP: rec.TCP, SizeBytes: rec.SizeBytes}},
			})
		}
	}
	sessions, err := run(s, specs, nil, false)
	if err != nil {
		return nil, err
	}
	for i, sr := range sessions {
		pts[i].veritasP = sr.Predictions[0]
	}

	t := &Table{
		ID:     "fig12",
		Title:  "Predicted vs true download time on random-bitrate sessions",
		Header: []string{"true DL time bucket (s)", "n", "mean true", "mean Fugu", "mean Veritas"},
	}
	buckets := []struct {
		label  string
		lo, hi float64
	}{
		{"0-0.5", 0, 0.5}, {"0.5-1", 0.5, 1}, {"1-2", 1, 2},
		{"2-5", 2, 5}, {"5-10", 5, 10}, {">10", 10, 1e18},
	}
	for _, b := range buckets {
		var act, fp, vp []float64
		for _, p := range pts {
			if p.actual >= b.lo && p.actual < b.hi {
				act = append(act, p.actual)
				fp = append(fp, p.fuguP)
				vp = append(vp, p.veritasP)
			}
		}
		if len(act) == 0 {
			continue
		}
		t.AddRow(b.label, len(act), stats.Mean(act), stats.Mean(fp), stats.Mean(vp))
	}

	var fuguUnder, veritasErr, fuguErr []float64
	for _, p := range pts {
		fuguUnder = append(fuguUnder, p.actual-p.fuguP) // positive = underestimate
		fuguErr = append(fuguErr, math.Abs(p.fuguP-p.actual))
		veritasErr = append(veritasErr, math.Abs(p.veritasP-p.actual))
	}
	p90Under := stats.Percentile(fuguUnder, 90)
	worstUnder := stats.Max(fuguUnder)
	t.AddRow("MAE", len(pts), "", stats.Mean(fuguErr), stats.Mean(veritasErr))
	t.AddRow("Fugu underestimate P90 / max", "", "", p90Under, worstUnder)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Fugu underestimates 10%% of chunks by ≥ %.2g s (paper: 5.8 s), worst case %.2g s (paper: 35 s)",
		p90Under, worstUnder))
	if stats.Mean(veritasErr) < stats.Mean(fuguErr) && p90Under > 0 {
		t.Notes = append(t.Notes,
			"SHAPE OK: Veritas tracks the diagonal while FuguNN systematically underestimates long downloads (paper Fig 12)")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"SHAPE CHECK: MAE fugu %.3g vs veritas %.3g", stats.Mean(fuguErr), stats.Mean(veritasErr)))
	}
	return t, nil
}
