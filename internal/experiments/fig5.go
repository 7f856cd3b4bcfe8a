package experiments

import (
	"fmt"
	"math"

	"veritas/internal/mathx"
	"veritas/internal/netem"
	"veritas/internal/stats"
	"veritas/internal/tcp"
	"veritas/internal/trace"
)

func init() {
	register("fig5", "CDF of the throughput estimator f's error", fig5)
}

// fig5 validates the estimator f exactly as §3.2 does: payloads of
// 2 KB–4 MB with random 0.12–8 s gaps, GTBW swept 0.5–10 Mbps and
// one-way delay 5–40 ms, constant per experiment. For every payload we
// compare the throughput f predicts from the pre-download TCP state with
// the throughput the emulator actually delivered.
func fig5(s Scale) (*Table, error) {
	rng := mathx.NewRand(s.Seed + 51)
	var errorsMbps []float64

	payloadsPer := 6 * s.TestTraces
	for _, delayMs := range []float64{5, 10, 20, 40} {
		for gtbw := 0.5; gtbw <= 10; gtbw += 0.5 {
			gt := trace.Constant(gtbw)
			cfg := testbedNet(s.Seed)
			cfg.RTT = 2 * delayMs / 1000
			conn, err := netem.NewConn(cfg)
			if err != nil {
				return nil, err
			}
			now := 0.0
			for p := 0; p < payloadsPer; p++ {
				// Log-uniform size in [2 KB, 4 MB].
				l2 := 1 + rng.Float64()*11
				size := math.Exp2(l2) * 1e3
				now += 0.12 + rng.Float64()*(8-0.12)
				st := conn.State(now)
				est := tcp.EstimateThroughput(gtbw, st, size)
				end, actual, err := conn.DownloadThroughput(now, size, gt)
				if err != nil {
					return nil, err
				}
				now = end
				errorsMbps = append(errorsMbps, est-actual)
			}
		}
	}

	t := &Table{
		ID:     "fig5",
		Title:  "Estimator f error (predicted - actual throughput, Mbps), CDF",
		Header: []string{"percentile", "error (Mbps)"},
	}
	for _, p := range []float64{1, 5, 10, 25, 50, 75, 90, 95, 99} {
		t.AddRow(fmt.Sprintf("P%g", p), stats.Percentile(errorsMbps, p))
	}
	var within float64
	for _, e := range errorsMbps {
		if math.Abs(e) <= 1 {
			within++
		}
	}
	within /= float64(len(errorsMbps))
	t.AddRow("frac |err|<=1 Mbps", within)
	if within > 0.85 {
		t.Notes = append(t.Notes,
			"SHAPE OK: the bulk of f's predictions fall within 1 Mbps of the observed throughput (paper Fig 5)")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"SHAPE MISS: only %.0f%% of errors within 1 Mbps", within*100))
	}
	return t, nil
}
