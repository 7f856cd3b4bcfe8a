package experiments

import (
	"fmt"

	"veritas/internal/abduction"
	"veritas/internal/engine"
	"veritas/internal/stats"
	"veritas/internal/trace"
)

func init() {
	register("ext-square", "Extension: recovery on square-wave bandwidth (the NetAI'20 restricted setting)", extSquare)
}

// extSquare evaluates Veritas on the square-wave bandwidth processes
// that the workshop paper the related-work section discusses ([39],
// Sruthi et al.) was *restricted* to. Veritas handles them as an
// ordinary special case: the tridiagonal prior ramps across each edge
// while the Baseline inherits the full observation bias. Reported per
// half-period: mean inferred level on the high and low plateaus.
func extSquare(s Scale) (*Table, error) {
	t := &Table{
		ID:     "ext-square",
		Title:  "GTBW recovery on square waves alternating between lo and hi every 60 s",
		Header: []string{"lo/hi (Mbps)", "Baseline RMSE", "Veritas RMSE", "Veritas hi-plateau mean", "Veritas lo-plateau mean"},
	}
	clip := s.clip()
	type band struct{ lo, hi float64 }
	var wins int
	bands := []band{{2, 6}, {3, 8}, {4, 5}}

	// One engine session per band, abductions retained for trace access.
	corpus := make([]engine.SessionSpec, len(bands))
	for bi, b := range bands {
		sq, err := trace.SquareWave(b.lo, b.hi, 60, 720)
		if err != nil {
			return nil, err
		}
		corpus[bi] = deployed(fmt.Sprintf("square-%d", bi), sq, clip, s.Seed+int64(bi))
		corpus[bi].Abduct = abduction.Config{NumSamples: 1, Seed: s.Seed + int64(bi)}
	}
	sessions, err := run(s, corpus, nil, true)
	if err != nil {
		return nil, err
	}
	for bi, b := range bands {
		sr := sessions[bi]
		sq := corpus[bi].Trace
		log := sr.Log
		base, err := abduction.BaselineTrace(log)
		if err != nil {
			return nil, err
		}
		ml := sr.Abd.MostLikelyTrace()
		horizon := log.Records[len(log.Records)-1].End

		vRMSE := traceRMSE(ml, sq, horizon)
		bRMSE := traceRMSE(base, sq, horizon)
		if vRMSE < bRMSE {
			wins++
		}
		// Plateau means, excluding 15 s around each edge where the
		// tridiagonal prior is still ramping.
		var hiVals, loVals []float64
		for tt := 0.0; tt < horizon; tt++ {
			phase := tt - 60*float64(int(tt/60))
			if phase < 15 || phase > 45 {
				continue
			}
			if sq.At(tt) == b.hi {
				hiVals = append(hiVals, ml.At(tt))
			} else {
				loVals = append(loVals, ml.At(tt))
			}
		}
		t.AddRow(fmt.Sprintf("%g/%g", b.lo, b.hi), bRMSE, vRMSE,
			stats.Mean(hiVals), stats.Mean(loVals))
	}
	if wins == len(bands) {
		t.Notes = append(t.Notes,
			"SHAPE OK: Veritas beats Baseline on every square wave — the restricted setting of [39] is an easy special case")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("SHAPE CHECK: Veritas won %d/%d bands", wins, len(bands)))
	}
	return t, nil
}
