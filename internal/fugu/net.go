// Package fugu reimplements the associational download-time predictor
// the paper compares against (FuguNN, from "Learning in situ", NSDI 20):
// a small fully-connected neural network that predicts the download time
// of a chunk from its size and the sizes and download times of the
// previous K chunks. Trained on logs of a deployed ABR, it answers the
// associational query Q1 well but — as the paper's Figures 2(b) and 12
// show — is biased for the causal query Q2. Reproducing that bias is the
// point of this package.
package fugu

import (
	"errors"
	"fmt"
	"math"

	"veritas/internal/mathx"
)

// Net is a plain multilayer perceptron with ReLU hidden activations and
// a linear output, trained by Adam on mean squared error. float64
// throughout; no external dependencies.
type Net struct {
	sizes   []int
	weights [][]float64 // layer l: sizes[l+1] × sizes[l], row-major
	biases  [][]float64

	// Adam state.
	mW, vW [][]float64
	mB, vB [][]float64
	step   int
}

// NewNet builds a network with the given layer sizes (input, hidden...,
// output) and He-initialized weights.
func NewNet(sizes []int, seed int64) (*Net, error) {
	if len(sizes) < 2 {
		return nil, errors.New("fugu: need at least input and output layers")
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("fugu: layer %d has non-positive size %d", i, s)
		}
	}
	rng := mathx.NewRand(seed)
	n := &Net{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		n.weights = append(n.weights, w)
		n.biases = append(n.biases, make([]float64, out))
		n.mW = append(n.mW, make([]float64, in*out))
		n.vW = append(n.vW, make([]float64, in*out))
		n.mB = append(n.mB, make([]float64, out))
		n.vB = append(n.vB, make([]float64, out))
	}
	return n, nil
}

// Forward runs inference, returning the output activations.
func (n *Net) Forward(x []float64) []float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("fugu: input size %d, want %d", len(x), n.sizes[0]))
	}
	act := append([]float64(nil), x...)
	for l := 0; l < len(n.weights); l++ {
		act = n.layerForward(l, act, l < len(n.weights)-1)
	}
	return act
}

func (n *Net) layerForward(l int, in []float64, relu bool) []float64 {
	inSize, outSize := n.sizes[l], n.sizes[l+1]
	out := make([]float64, outSize)
	w := n.weights[l]
	for o := 0; o < outSize; o++ {
		s := n.biases[l][o]
		row := w[o*inSize : (o+1)*inSize]
		for i, xi := range in {
			s += row[i] * xi
		}
		if relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
	return out
}

// TrainConfig controls optimization.
type TrainConfig struct {
	Epochs    int     // full passes over the data (default 60)
	BatchSize int     // minibatch size (default 32)
	LR        float64 // Adam learning rate (default 1e-3)
	Seed      int64   // shuffling seed
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	return c
}

// Train fits the network to (X, Y) with Adam + MSE and returns the final
// epoch's mean loss.
func (n *Net) Train(X, Y [][]float64, cfg TrainConfig) (float64, error) {
	if len(X) == 0 || len(X) != len(Y) {
		return 0, fmt.Errorf("fugu: bad dataset: %d inputs, %d targets", len(X), len(Y))
	}
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
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			epochLoss += n.trainBatch(X, Y, idx[start:end], cfg.LR)
		}
		lastLoss = epochLoss / float64(len(idx))
	}
	return lastLoss, nil
}

// trainBatch accumulates gradients over the batch and applies one Adam
// step; returns the summed loss.
func (n *Net) trainBatch(X, Y [][]float64, batch []int, lr float64) float64 {
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
		// Forward pass, keeping activations.
		acts := make([][]float64, L+1)
		acts[0] = x
		for l := 0; l < L; l++ {
			acts[l+1] = n.layerForward(l, acts[l], l < L-1)
		}
		out := acts[L]
		// MSE gradient at the output.
		delta := make([]float64, len(out))
		for o := range out {
			d := out[o] - y[o]
			loss += 0.5 * d * d
			delta[o] = d
		}
		// Backward pass.
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
				// ReLU derivative of the hidden activation.
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

func adam(param, grad, m, v []float64, lr, inv, beta1, beta2, eps, bc1, bc2 float64) {
	for i := range param {
		g := grad[i] * inv
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		param[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}
