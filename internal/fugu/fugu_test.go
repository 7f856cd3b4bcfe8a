package fugu

import (
	"math"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/player"
	"veritas/internal/trace"
	"veritas/internal/video"
)

func TestNewNetValidation(t *testing.T) {
	if _, err := NewNet([]int{3}, 1); err == nil {
		t.Error("single layer should fail")
	}
	if _, err := NewNet([]int{3, 0, 1}, 1); err == nil {
		t.Error("zero-size layer should fail")
	}
	n, err := NewNet([]int{4, 8, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.weights) != 2 || n.sizes[0] != 4 || n.sizes[len(n.sizes)-1] != 1 {
		t.Error("layer shape wrong")
	}
}

func TestForwardDeterministic(t *testing.T) {
	a, _ := NewNet([]int{2, 4, 1}, 5)
	b, _ := NewNet([]int{2, 4, 1}, 5)
	x := []float64{0.3, -0.7}
	ya, yb := a.Forward(x), b.Forward(x)
	if ya[0] != yb[0] {
		t.Error("same seed nets differ")
	}
	c, _ := NewNet([]int{2, 4, 1}, 6)
	if c.Forward(x)[0] == ya[0] {
		t.Log("note: different seeds coincided (unlikely)")
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	n, _ := NewNet([]int{2, 3, 1}, 1)
	defer func() {
		if recover() == nil {
			t.Error("wrong input size should panic")
		}
	}()
	n.Forward([]float64{1})
}

func TestTrainLearnsLinearFunction(t *testing.T) {
	// y = 2a - b + 0.5 should be learnable to high accuracy.
	n, _ := NewNet([]int{2, 16, 1}, 3)
	var X, Y [][]float64
	for i := 0; i < 200; i++ {
		a := float64(i%20)/10 - 1
		b := float64((i*7)%20)/10 - 1
		X = append(X, []float64{a, b})
		Y = append(Y, []float64{2*a - b + 0.5})
	}
	loss, err := n.Train(X, Y, TrainConfig{Epochs: 300, BatchSize: 16, LR: 5e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.005 {
		t.Errorf("final loss %v, want < 0.005", loss)
	}
	got := n.Forward([]float64{0.5, -0.5})[0]
	want := 2*0.5 + 0.5 + 0.5
	if math.Abs(got-want) > 0.2 {
		t.Errorf("prediction %v, want %v", got, want)
	}
}

func TestTrainLearnsNonlinearFunction(t *testing.T) {
	// y = a² needs the hidden nonlinearity.
	n, _ := NewNet([]int{1, 32, 32, 1}, 4)
	var X, Y [][]float64
	for i := 0; i <= 100; i++ {
		a := float64(i)/50 - 1
		X = append(X, []float64{a})
		Y = append(Y, []float64{a * a})
	}
	if _, err := n.Train(X, Y, TrainConfig{Epochs: 500, BatchSize: 16, LR: 3e-3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{-0.8, -0.3, 0, 0.4, 0.9} {
		got := n.Forward([]float64{a})[0]
		if math.Abs(got-a*a) > 0.1 {
			t.Errorf("f(%v) = %v, want %v", a, got, a*a)
		}
	}
}

func TestTrainRejectsBadData(t *testing.T) {
	n, _ := NewNet([]int{1, 4, 1}, 1)
	if _, err := n.Train(nil, nil, TrainConfig{}); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := n.Train([][]float64{{1}}, nil, TrainConfig{}); err == nil {
		t.Error("mismatched dataset should fail")
	}
}

func sessionLogs(t *testing.T, n int) []*player.SessionLog {
	t.Helper()
	logs := make([]*player.SessionLog, n)
	for i := 0; i < n; i++ {
		gt, err := trace.Generate(trace.GenConfig{
			MinMbps: 1, MaxMbps: 8, Interval: 5, Horizon: 720,
			StepMbps: 0.4, JumpProb: 0.02, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := video.DefaultConfig(1)
		cfg.NumChunks = 60
		log, _, err := player.Run(player.Config{
			Video:     video.MustSynthesize(cfg),
			ABR:       abr.NewMPC(),
			Trace:     gt,
			Net:       netem.Config{RTT: 0.160, SlowStartRestart: true},
			BufferCap: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = log
	}
	return logs
}

func TestBuildDataset(t *testing.T) {
	logs := sessionLogs(t, 2)
	ds := BuildDataset(logs, 8)
	want := 2 * (60 - 8)
	if len(ds) != want {
		t.Fatalf("dataset size %d, want %d", len(ds), want)
	}
	for i, s := range ds {
		if len(s.History) != 8 {
			t.Fatalf("sample %d history %d", i, len(s.History))
		}
		if s.NextSizeBytes <= 0 || s.DownloadSeconds <= 0 {
			t.Fatalf("sample %d has non-positive fields", i)
		}
	}
}

func TestBuildDatasetDefaultK(t *testing.T) {
	logs := sessionLogs(t, 1)
	ds := BuildDataset(logs, 0)
	if len(ds) != 60-DefaultK {
		t.Errorf("default K dataset size %d", len(ds))
	}
}

func TestPredictorOnPolicyAccuracy(t *testing.T) {
	// Trained and evaluated on the same ABR's data distribution, Fugu
	// should predict download times well — the associational query Q1.
	logs := sessionLogs(t, 6)
	ds := BuildDataset(logs, 8)
	trainDS, testDS := ds[:len(ds)*4/5], ds[len(ds)*4/5:]
	p, err := TrainPredictor(trainDS, PredictorConfig{
		Seed:  1,
		Train: TrainConfig{Epochs: 80, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var mae, mean float64
	for _, s := range testDS {
		got, err := p.Predict(s.History, s.NextSizeBytes)
		if err != nil {
			t.Fatal(err)
		}
		mae += math.Abs(got - s.DownloadSeconds)
		mean += s.DownloadSeconds
	}
	mae /= float64(len(testDS))
	mean /= float64(len(testDS))
	if mae > mean {
		t.Errorf("on-policy MAE %v exceeds mean download time %v", mae, mean)
	}
}

func TestPredictValidation(t *testing.T) {
	logs := sessionLogs(t, 1)
	ds := BuildDataset(logs, 4)
	p, err := TrainPredictor(ds, PredictorConfig{K: 4, Train: TrainConfig{Epochs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(make([]HistoryEntry, 3), 1e6); err == nil {
		t.Error("wrong history length should fail")
	}
}

func TestPredictNonNegative(t *testing.T) {
	logs := sessionLogs(t, 2)
	ds := BuildDataset(logs, 8)
	p, err := TrainPredictor(ds, PredictorConfig{Train: TrainConfig{Epochs: 10}})
	if err != nil {
		t.Fatal(err)
	}
	// Extreme out-of-distribution input must still give a non-negative time.
	h := make([]HistoryEntry, 8)
	for i := range h {
		h[i] = HistoryEntry{SizeBytes: 10, DownloadSeconds: 0.001}
	}
	got, err := p.Predict(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 {
		t.Errorf("negative prediction %v", got)
	}
}

func TestTrainPredictorValidation(t *testing.T) {
	if _, err := TrainPredictor(nil, PredictorConfig{}); err == nil {
		t.Error("empty training set should fail")
	}
	bad := []Sample{{History: make([]HistoryEntry, 3), NextSizeBytes: 1, DownloadSeconds: 1}}
	if _, err := TrainPredictor(bad, PredictorConfig{K: 8}); err == nil {
		t.Error("history/K mismatch should fail")
	}
}

func TestHistoryFromLog(t *testing.T) {
	logs := sessionLogs(t, 1)
	h, err := HistoryFromLog(logs[0], 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 8 {
		t.Fatalf("history length %d", len(h))
	}
	if h[7].SizeBytes != logs[0].Records[19].SizeBytes {
		t.Error("history misaligned")
	}
	if _, err := HistoryFromLog(logs[0], 5, 8); err == nil {
		t.Error("insufficient history should fail")
	}
}
