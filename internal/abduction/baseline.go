package abduction

import (
	"math"

	"veritas/internal/player"
	"veritas/internal/trace"
)

// baselineGridSecs is the uniform grid the Baseline estimate is sampled
// onto: 1 s captures the interpolation well below typical off-period
// lengths.
const baselineGridSecs = 1.0

// BaselineTrace builds the paper's Baseline GTBW estimate from a session
// log: the observed throughput of each chunk is assumed to hold over the
// chunk's whole download window, and bandwidth during off-periods (no
// active download) is linearly interpolated between the surrounding
// chunks' throughputs. This is the adjustment-free scheme "commonly used
// in most video streaming evaluations today" that Veritas outperforms.
//
// The log is outside input and is checked like Abduct checks it
// (checkRecords): the grid is sized by the last record's End.
func BaselineTrace(log *player.SessionLog) (*trace.Trace, error) {
	if err := checkRecords(log); err != nil {
		return nil, err
	}
	recs := log.Records
	last := recs[len(recs)-1]
	vals := make([]float64, int(math.Ceil((last.End+baselineGridSecs)/baselineGridSecs))+1)

	// One forward merge of the grid with the time-ordered records: p is
	// the first record whose download has not ended before t, so every
	// record is passed once however many grid points there are.
	for i, p := 0, 0; i < len(vals); {
		t := float64(i) * baselineGridSecs
		switch {
		case p == len(recs):
			// After the last download: hold the edge value.
			vals[i] = last.ThroughputMbps
		case recs[p].End < t:
			p++
			continue
		case t >= recs[p].Start || p == 0:
			// Inside a download window — that chunk's observed
			// throughput — or before the first chunk.
			vals[i] = recs[p].ThroughputMbps
		default:
			// Off-period: linear interpolation between the previous
			// chunk's and next chunk's throughput across the gap.
			prev, next := &recs[p-1], &recs[p]
			frac := (t - prev.End) / (next.Start - prev.End)
			vals[i] = prev.ThroughputMbps + frac*(next.ThroughputMbps-prev.ThroughputMbps)
		}
		i++
	}
	return trace.FromSteps(baselineGridSecs, vals)
}
