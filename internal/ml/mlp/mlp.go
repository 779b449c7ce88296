// Package mlp implements the multilayer perceptron used in case study #2 of
// the paper: an MLP that mimics Linux CFS load-balancing decisions (after
// Chen et al., APSys '20). Training runs in floating point — the paper's
// "ML training could be performed in real-time in userspace using floating
// point operations" — and trained models are quantized (see QMLP) and pushed
// to the kernel for integer-only inference.
package mlp

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully connected network with ReLU hidden activations and a linear
// output layer trained with softmax cross-entropy.
type MLP struct {
	// Sizes lists layer widths, input first, output (class count) last.
	Sizes []int
	// W holds per-layer weights; W[l] is Sizes[l+1]×Sizes[l], row-major
	// (output-major).
	W [][]float64
	// B holds per-layer biases; B[l] has Sizes[l+1] entries.
	B [][]float64
}

// New constructs an MLP with Xavier-uniform initial weights drawn from the
// seeded generator, making training deterministic.
func New(sizes []int, seed int64) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("mlp: need at least input and output layers, got %v", sizes)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("mlp: non-positive layer size in %v", sizes)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		limit := math.Sqrt(6.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m, nil
}

// Layers reports the number of weight layers.
func (m *MLP) Layers() int { return len(m.W) }

// NumClasses reports the output width.
func (m *MLP) NumClasses() int { return m.Sizes[len(m.Sizes)-1] }

// forward computes all layer activations (post-ReLU for hidden layers,
// raw logits for the output layer). acts[0] is the input.
func (m *MLP) forward(x []float64) [][]float64 {
	acts := make([][]float64, len(m.Sizes))
	acts[0] = x
	for l := 0; l < m.Layers(); l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		a := make([]float64, out)
		w := m.W[l]
		for o := 0; o < out; o++ {
			sum := m.B[l][o]
			row := w[o*in : (o+1)*in]
			for i, xi := range acts[l] {
				sum += row[i] * xi
			}
			if l < m.Layers()-1 && sum < 0 {
				sum = 0 // ReLU
			}
			a[o] = sum
		}
		acts[l+1] = a
	}
	return acts
}

// Logits returns the output-layer pre-softmax values for x.
func (m *MLP) Logits(x []float64) []float64 {
	acts := m.forward(x)
	return acts[len(acts)-1]
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(x []float64) int {
	return argmax(m.Logits(x))
}

// Proba returns the softmax class distribution for x.
func (m *MLP) Proba(x []float64) []float64 {
	return softmax(m.Logits(x))
}

func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	max := logits[argmax(logits)]
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	// Epochs over the training set. <=0 selects 30.
	Epochs int
	// LR is the learning rate. <=0 selects 0.05.
	LR float64
	// Seed drives shuffling.
	Seed int64
}

// Train fits the network to X (rows of Sizes[0] features) with integer class
// labels y in [0, NumClasses).
func (m *MLP) Train(X [][]float64, y []int, cfg TrainConfig) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("mlp: bad training set: %d samples, %d labels", len(X), len(y))
	}
	nin, ncls := m.Sizes[0], m.NumClasses()
	for i, row := range X {
		if len(row) != nin {
			return fmt.Errorf("mlp: sample %d has %d features, want %d", i, len(row), nin)
		}
		if y[i] < 0 || y[i] >= ncls {
			return fmt.Errorf("mlp: label %d out of [0,%d)", y[i], ncls)
		}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := cfg.LR / (1 + 0.05*float64(epoch)) // mild decay
		for _, s := range order {
			m.sgdStep(X[s], y[s], lr)
		}
	}
	return nil
}

// sgdStep performs one backpropagation update.
func (m *MLP) sgdStep(x []float64, label int, lr float64) {
	acts := m.forward(x)
	L := m.Layers()
	// Output delta: softmax cross-entropy gradient = p - onehot.
	delta := softmax(acts[L])
	delta[label] -= 1

	for l := L - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		w := m.W[l]
		var prev []float64
		if l > 0 {
			prev = make([]float64, in)
		}
		for o := 0; o < out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			row := w[o*in : (o+1)*in]
			for i, a := range acts[l] {
				if prev != nil {
					prev[i] += d * row[i]
				}
				g := d * a
				row[i] -= lr * g
			}
			m.B[l][o] -= lr * d
		}
		if l > 0 {
			// Backprop through ReLU of layer l's activations.
			for i := range prev {
				if acts[l][i] <= 0 {
					prev[i] = 0
				}
			}
			delta = prev
		}
	}
}

// Accuracy reports the fraction of rows classified as their label.
func (m *MLP) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	hit := 0
	for i, x := range X {
		if m.Predict(x) == y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(X))
}

// Cost reports the float model's verifier cost: multiply-accumulates per
// inference and resident bytes (float64 weights).
func (m *MLP) Cost() (ops, bytes int64) {
	for l := 0; l < m.Layers(); l++ {
		ops += 2 * int64(m.Sizes[l]) * int64(m.Sizes[l+1])
		bytes += 8 * int64(len(m.W[l])+len(m.B[l]))
	}
	return ops, bytes
}

// Standardize computes the per-feature mean and standard deviation of X
// (sigma entries are never zero; constant features get sigma 1).
func Standardize(X [][]float64) (mu, sigma []float64) {
	if len(X) == 0 {
		return nil, nil
	}
	nf := len(X[0])
	mu = make([]float64, nf)
	sigma = make([]float64, nf)
	for _, row := range X {
		for i, v := range row {
			mu[i] += v
		}
	}
	for i := range mu {
		mu[i] /= float64(len(X))
	}
	for _, row := range X {
		for i, v := range row {
			d := v - mu[i]
			sigma[i] += d * d
		}
	}
	for i := range sigma {
		sigma[i] = math.Sqrt(sigma[i] / float64(len(X)))
		if sigma[i] == 0 {
			sigma[i] = 1
		}
	}
	return mu, sigma
}

// ApplyStandardize maps X into standardized space (fresh rows).
func ApplyStandardize(X [][]float64, mu, sigma []float64) [][]float64 {
	out := make([][]float64, len(X))
	for r, row := range X {
		s := make([]float64, len(row))
		for i, v := range row {
			s[i] = (v - mu[i]) / sigma[i]
		}
		out[r] = s
	}
	return out
}

// FoldInputScaling rewrites the first layer so the network accepts raw
// (unstandardized) inputs while behaving as if they had been standardized
// with (mu, sigma): w·(x-mu)/sigma + b  ==  (w/sigma)·x + (b - Σ w·mu/sigma).
// Call once, after training on standardized data.
func (m *MLP) FoldInputScaling(mu, sigma []float64) error {
	in := m.Sizes[0]
	if len(mu) != in || len(sigma) != in {
		return fmt.Errorf("mlp: scaling length %d/%d, want %d", len(mu), len(sigma), in)
	}
	out := m.Sizes[1]
	for o := 0; o < out; o++ {
		row := m.W[0][o*in : (o+1)*in]
		for i := 0; i < in; i++ {
			row[i] /= sigma[i]
			m.B[0][o] -= row[i] * mu[i]
		}
	}
	return nil
}

// TrainStandardized standardizes X per feature, trains on the standardized
// data, then folds the scaling into the first layer so the resulting network
// consumes raw features. This is how models trained in userspace floating
// point stay compatible with the integer feature vectors the kernel
// collects.
func (m *MLP) TrainStandardized(X [][]float64, y []int, cfg TrainConfig) error {
	mu, sigma := Standardize(X)
	if err := m.Train(ApplyStandardize(X, mu, sigma), y, cfg); err != nil {
		return err
	}
	return m.FoldInputScaling(mu, sigma)
}
