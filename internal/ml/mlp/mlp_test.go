package mlp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func xorData() (X [][]float64, y []int) {
	for a := 0.0; a < 2; a++ {
		for b := 0.0; b < 2; b++ {
			for r := 0; r < 25; r++ {
				X = append(X, []float64{a, b})
				y = append(y, int(a)^int(b))
			}
		}
	}
	return X, y
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{4}, 1); err == nil {
		t.Fatal("single layer accepted")
	}
	if _, err := New([]int{4, 0, 2}, 1); err == nil {
		t.Fatal("zero width accepted")
	}
	m, err := New([]int{4, 8, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Layers() != 2 || m.NumClasses() != 2 {
		t.Fatal("shape accessors wrong")
	}
}

func TestNewDeterministic(t *testing.T) {
	a, _ := New([]int{3, 4, 2}, 7)
	b, _ := New([]int{3, 4, 2}, 7)
	for l := range a.W {
		for i := range a.W[l] {
			if a.W[l][i] != b.W[l][i] {
				t.Fatal("same seed, different weights")
			}
		}
	}
}

func TestTrainXOR(t *testing.T) {
	X, y := xorData()
	m, _ := New([]int{2, 8, 2}, 3)
	if err := m.Train(X, y, TrainConfig{Epochs: 200, LR: 0.2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(X, y); acc != 1.0 {
		t.Fatalf("XOR accuracy %.3f", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	m, _ := New([]int{2, 4, 2}, 1)
	if err := m.Train(nil, nil, TrainConfig{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if err := m.Train([][]float64{{1}}, []int{0}, TrainConfig{}); err == nil {
		t.Fatal("wrong width accepted")
	}
	if err := m.Train([][]float64{{1, 2}}, []int{5}, TrainConfig{}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestProbaSumsToOne(t *testing.T) {
	m, _ := New([]int{3, 5, 4}, 9)
	f := func(a, b, c int8) bool {
		p := softmax(m.Logits([]float64{float64(a), float64(b), float64(c)}))
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCost(t *testing.T) {
	m, _ := New([]int{10, 6, 2}, 1)
	ops, bytes := m.Cost()
	if ops != 2*(10*6+6*2) {
		t.Fatalf("ops = %d", ops)
	}
	if bytes != 8*(10*6+6+6*2+2) {
		t.Fatalf("bytes = %d", bytes)
	}
}

// TestFoldInputScaling: a network trained on standardized data and then
// folded must produce identical logits on raw inputs.
func TestFoldInputScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		// Wildly different feature scales.
		x := []float64{rng.Float64() * 1000, rng.Float64() * 0.01}
		label := 0
		if x[0] > 500 {
			label = 1
		}
		X = append(X, x)
		y = append(y, label)
	}
	mu, sigma := Standardize(X)
	Xs := ApplyStandardize(X, mu, sigma)

	trained, _ := New([]int{2, 6, 2}, 5)
	if err := trained.Train(Xs, y, TrainConfig{Epochs: 50, LR: 0.1, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	// Reference logits in standardized space.
	wantLogits := make([][]float64, len(X))
	for i, xs := range Xs {
		wantLogits[i] = trained.Logits(xs)
	}
	if err := trained.FoldInputScaling(mu, sigma); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		got := trained.Logits(x)
		for j := range got {
			if math.Abs(got[j]-wantLogits[i][j]) > 1e-6 {
				t.Fatalf("sample %d logit %d: %v != %v", i, j, got[j], wantLogits[i][j])
			}
		}
	}
}

func TestTrainStandardizedBeatsRawOnSkewedScales(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var X [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64() * 10000, rng.Float64() * 10000}
		label := 0
		if x[0] > x[1] {
			label = 1
		}
		X = append(X, x)
		y = append(y, label)
	}
	std, _ := New([]int{2, 8, 2}, 4)
	if err := std.TrainStandardized(X, y, TrainConfig{Epochs: 60, LR: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if acc := std.Accuracy(X, y); acc < 0.97 {
		t.Fatalf("standardized accuracy %.3f", acc)
	}
}

func TestStandardizeConstantFeature(t *testing.T) {
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}}
	mu, sigma := Standardize(X)
	if sigma[1] != 1 {
		t.Fatalf("constant feature sigma = %v", sigma[1])
	}
	if mu[1] != 5 {
		t.Fatalf("mu = %v", mu[1])
	}
}

func TestFoldInputScalingValidation(t *testing.T) {
	m, _ := New([]int{3, 2, 2}, 1)
	if err := m.FoldInputScaling([]float64{1}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
