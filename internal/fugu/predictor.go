package fugu

import (
	"errors"
	"fmt"
	"math"

	"veritas/internal/player"
)

// HistoryEntry is one past chunk's observation: the inputs FuguNN sees.
type HistoryEntry struct {
	SizeBytes       float64
	DownloadSeconds float64
}

// Sample is one training or evaluation example: the previous K chunks,
// the candidate next chunk size, and the true download time.
type Sample struct {
	History         []HistoryEntry
	NextSizeBytes   float64
	DownloadSeconds float64
}

// DefaultK is the history length the predictor conditions on.
const DefaultK = 8

// BuildDataset slides a window over each session log and emits one
// sample per chunk that has a full K-chunk history. This is exactly the
// on-policy data a deployed system would collect — which is what makes
// the resulting model associational.
func BuildDataset(logs []*player.SessionLog, k int) []Sample {
	if k <= 0 {
		k = DefaultK
	}
	var out []Sample
	for _, log := range logs {
		recs := log.Records
		for n := k; n < len(recs); n++ {
			h := make([]HistoryEntry, k)
			for j := 0; j < k; j++ {
				r := recs[n-k+j]
				h[j] = HistoryEntry{SizeBytes: r.SizeBytes, DownloadSeconds: r.DownloadSeconds()}
			}
			out = append(out, Sample{
				History:         h,
				NextSizeBytes:   recs[n].SizeBytes,
				DownloadSeconds: recs[n].DownloadSeconds(),
			})
		}
	}
	return out
}

// Predictor is a trained FuguNN: an MLP over standardized features.
type Predictor struct {
	net     *Net
	k       int
	inMean  []float64
	inStd   []float64
	outMean float64
	outStd  float64
}

// PredictorConfig controls training.
type PredictorConfig struct {
	K      int   // history length (default DefaultK)
	Hidden []int // hidden layer sizes (default [64, 64])
	Train  TrainConfig
	Seed   int64
}

func (c PredictorConfig) withDefaults() PredictorConfig {
	if c.K == 0 {
		c.K = DefaultK
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.Train.Seed == 0 {
		c.Train.Seed = c.Seed + 1
	}
	return c
}

// features flattens a (history, next size) pair into the network input:
// sizes in MB, download times in seconds.
func features(h []HistoryEntry, nextSizeBytes float64) []float64 {
	x := make([]float64, 0, 2*len(h)+1)
	for _, e := range h {
		x = append(x, e.SizeBytes/1e6, e.DownloadSeconds)
	}
	return append(x, nextSizeBytes/1e6)
}

// TrainPredictor fits FuguNN on the samples.
func TrainPredictor(samples []Sample, cfg PredictorConfig) (*Predictor, error) {
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return nil, errors.New("fugu: empty training set")
	}
	dim := 2*cfg.K + 1
	X := make([][]float64, len(samples))
	Y := make([][]float64, len(samples))
	for i, s := range samples {
		if len(s.History) != cfg.K {
			return nil, fmt.Errorf("fugu: sample %d has history %d, want %d", i, len(s.History), cfg.K)
		}
		X[i] = features(s.History, s.NextSizeBytes)
		Y[i] = []float64{s.DownloadSeconds}
	}

	p := &Predictor{k: cfg.K, inMean: make([]float64, dim), inStd: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		var m float64
		for i := range X {
			m += X[i][j]
		}
		m /= float64(len(X))
		var v float64
		for i := range X {
			d := X[i][j] - m
			v += d * d
		}
		sd := math.Sqrt(v / float64(len(X)))
		if sd < 1e-9 {
			sd = 1
		}
		p.inMean[j], p.inStd[j] = m, sd
	}
	var om, ov float64
	for i := range Y {
		om += Y[i][0]
	}
	om /= float64(len(Y))
	for i := range Y {
		d := Y[i][0] - om
		ov += d * d
	}
	osd := math.Sqrt(ov / float64(len(Y)))
	if osd < 1e-9 {
		osd = 1
	}
	p.outMean, p.outStd = om, osd

	for i := range X {
		for j := 0; j < dim; j++ {
			X[i][j] = (X[i][j] - p.inMean[j]) / p.inStd[j]
		}
		Y[i][0] = (Y[i][0] - p.outMean) / p.outStd
	}

	layers := append([]int{dim}, cfg.Hidden...)
	layers = append(layers, 1)
	net, err := NewNet(layers, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := net.Train(X, Y, cfg.Train); err != nil {
		return nil, err
	}
	p.net = net
	return p, nil
}

// Predict returns the predicted download time in seconds for the next
// chunk of the given size after the given history. Predictions are
// clamped at zero (a download cannot take negative time).
func (p *Predictor) Predict(history []HistoryEntry, nextSizeBytes float64) (float64, error) {
	if len(history) != p.k {
		return 0, fmt.Errorf("fugu: history length %d, want %d", len(history), p.k)
	}
	x := features(history, nextSizeBytes)
	for j := range x {
		x[j] = (x[j] - p.inMean[j]) / p.inStd[j]
	}
	y := p.net.Forward(x)[0]*p.outStd + p.outMean
	if y < 0 {
		y = 0
	}
	return y, nil
}

// HistoryFromLog extracts the most recent K-entry history ending at
// chunk index end (exclusive) from a session log.
func HistoryFromLog(log *player.SessionLog, end, k int) ([]HistoryEntry, error) {
	if end < k {
		return nil, fmt.Errorf("fugu: need %d chunks of history, have %d", k, end)
	}
	h := make([]HistoryEntry, k)
	for j := 0; j < k; j++ {
		r := log.Records[end-k+j]
		h[j] = HistoryEntry{SizeBytes: r.SizeBytes, DownloadSeconds: r.DownloadSeconds()}
	}
	return h, nil
}
