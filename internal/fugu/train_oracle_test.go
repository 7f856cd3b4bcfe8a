package fugu

import (
	"math"
	"reflect"
	"testing"

	"veritas/internal/mathx"
)

// trainBatchOracle is trainBatch as it was before the training arena:
// gradients allocated per batch, activations, the output error and each
// layer's back-propagated error allocated per sample.
func trainBatchOracle(n *Net, X, Y [][]float64, batch []int, lr float64) float64 {
	L := len(n.weights)
	gradW := make([][]float64, L)
	gradB := make([][]float64, L)
	for l := 0; l < L; l++ {
		gradW[l] = make([]float64, len(n.weights[l]))
		gradB[l] = make([]float64, len(n.biases[l]))
	}
	var loss float64
	for _, s := range batch {
		x, y := X[s], Y[s]
		acts := make([][]float64, L+1)
		acts[0] = x
		for l := 0; l < L; l++ {
			acts[l+1] = n.layerForward(l, acts[l], l < L-1)
		}
		out := acts[L]
		delta := make([]float64, len(out))
		for o := range out {
			d := out[o] - y[o]
			loss += 0.5 * d * d
			delta[o] = d
		}
		for l := L - 1; l >= 0; l-- {
			inSize, outSize := n.sizes[l], n.sizes[l+1]
			in := acts[l]
			w := n.weights[l]
			for o := 0; o < outSize; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				gradB[l][o] += d
				grow := gradW[l][o*inSize : (o+1)*inSize]
				for i, xi := range in {
					grow[i] += d * xi
				}
			}
			if l > 0 {
				prev := make([]float64, inSize)
				for o := 0; o < outSize; o++ {
					d := delta[o]
					if d == 0 {
						continue
					}
					row := w[o*inSize : (o+1)*inSize]
					for i := range prev {
						prev[i] += d * row[i]
					}
				}
				for i := range prev {
					if acts[l][i] <= 0 {
						prev[i] = 0
					}
				}
				delta = prev
			}
		}
	}
	inv := 1 / float64(len(batch))
	n.step++
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(beta1, float64(n.step))
	bc2 := 1 - math.Pow(beta2, float64(n.step))
	for l := 0; l < L; l++ {
		adam(n.weights[l], gradW[l], n.mW[l], n.vW[l], lr, inv, beta1, beta2, eps, bc1, bc2)
		adam(n.biases[l], gradB[l], n.mB[l], n.vB[l], lr, inv, beta1, beta2, eps, bc1, bc2)
	}
	return loss
}

// trainOracle is Train over trainBatchOracle.
func trainOracle(n *Net, X, Y [][]float64, cfg TrainConfig) float64 {
	cfg = cfg.withDefaults()
	rng := mathx.NewRand(cfg.Seed)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			epochLoss += trainBatchOracle(n, X, Y, idx[start:min(start+cfg.BatchSize, len(idx))], cfg.LR)
		}
		lastLoss = epochLoss / float64(len(idx))
	}
	return lastLoss
}

// trainingSet is a small nonlinear regression with a ragged last batch,
// dead ReLUs and exact-zero output errors on some samples.
func trainingSet() (X, Y [][]float64) {
	for i := 0; i < 75; i++ {
		a, b, c := float64(i%9)/4-1, float64((i*5)%11)/5-1, float64((i*3)%7)/3
		X = append(X, []float64{a, b, c})
		Y = append(Y, []float64{math.Max(0, a*b) + c, a - c})
	}
	return X, Y
}

// TestTrainMatchesOracle: training through the Net's arena ends at the
// same weights, biases, Adam state and loss as the allocate-per-sample
// oracle, bit for bit, for deep and shallow networks.
func TestTrainMatchesOracle(t *testing.T) {
	X, Y := trainingSet()
	for _, sizes := range [][]int{{3, 2}, {3, 8, 2}, {3, 16, 8, 2}} {
		got, err := NewNet(sizes, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewNet(sizes, 5)
		cfg := TrainConfig{Epochs: 7, BatchSize: 16, LR: 1e-2, Seed: 3}
		gotLoss, err := got.Train(X, Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantLoss := trainOracle(want, X, Y, cfg)
		got.train = nil
		if gotLoss != wantLoss || !reflect.DeepEqual(got, want) {
			t.Errorf("layers %v: training through the arena ends at loss %v, the oracle at %v, or at other weights", sizes, gotLoss, wantLoss)
		}
	}
}

// TestTrainBatchAllocatesNothingWarm pins the arena: once the first
// batch has made it, a minibatch step allocates nothing.
func TestTrainBatchAllocatesNothingWarm(t *testing.T) {
	X, Y := trainingSet()
	n, err := NewNet([]int{3, 16, 8, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	batch := []int{0, 4, 9, 16, 25, 36, 49, 64}
	n.trainBatch(X, Y, batch, 1e-3)
	if allocs := testing.AllocsPerRun(50, func() { n.trainBatch(X, Y, batch, 1e-3) }); allocs != 0 {
		t.Errorf("a warm trainBatch allocates %v objects, want 0", allocs)
	}
}
