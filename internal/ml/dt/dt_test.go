package dt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func axisDataset(rng *rand.Rand, n int) (X [][]int64, y []int64) {
	// Label = 1 iff x0 > 50, independent of x1.
	for i := 0; i < n; i++ {
		x := []int64{rng.Int63n(100), rng.Int63n(100)}
		label := int64(0)
		if x[0] > 50 {
			label = 1
		}
		X = append(X, x)
		y = append(y, label)
	}
	return X, y
}

func TestTrainAxisSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := axisDataset(rng, 500)
	tree, err := Train(X, y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(X, y); acc != 1.0 {
		t.Fatalf("train accuracy %.3f, want 1.0", acc)
	}
	Xt, yt := axisDataset(rng, 500)
	if acc := tree.Accuracy(Xt, yt); acc < 0.99 {
		t.Fatalf("test accuracy %.3f", acc)
	}
	// It should be a single split on feature 0.
	imp := tree.Importance()
	if imp[0] < 0.99 || imp[1] > 0.01 {
		t.Fatalf("importance = %v", imp)
	}
}

func TestTrainXORNeedsDepth(t *testing.T) {
	var X [][]int64
	var y []int64
	for a := int64(0); a < 2; a++ {
		for b := int64(0); b < 2; b++ {
			for rep := 0; rep < 10; rep++ {
				X = append(X, []int64{a, b})
				y = append(y, a^b)
			}
		}
	}
	shallow, err := Train(X, y, Config{MaxDepth: 1, MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Train(X, y, Config{MaxDepth: 3, MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := deep.Accuracy(X, y); acc != 1.0 {
		t.Fatalf("depth-3 accuracy %.3f on XOR", acc)
	}
	if shallow.Depth() > 1 {
		t.Fatalf("depth cap violated: %d", shallow.Depth())
	}
}

func TestMulticlassLabels(t *testing.T) {
	// Labels are arbitrary int64 values (delta classes), not indices.
	var X [][]int64
	var y []int64
	for i := int64(0); i < 300; i++ {
		x := i % 3
		X = append(X, []int64{x * 10})
		y = append(y, []int64{-7, 1, 131072}[x])
	}
	tree, err := Train(X, y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		want := []int64{-7, 1, 131072}[i]
		if got := tree.Predict([]int64{i * 10}); got != want {
			t.Fatalf("class %d -> %d, want %d", i, got, want)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Train([][]int64{{1}}, []int64{1, 2}, Config{}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	if _, err := Train([][]int64{{1}, {1, 2}}, []int64{1, 2}, Config{}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := Train([][]int64{{}}, []int64{1}, Config{}); err == nil {
		t.Fatal("zero features accepted")
	}
}

func TestPredictShortVectorFailSoft(t *testing.T) {
	X := [][]int64{{0, 0}, {0, 10}, {10, 0}, {10, 10}}
	y := []int64{0, 1, 0, 1}
	tree, err := Train(X, y, Config{MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Short and empty vectors read missing features as zero, never panic.
	_ = tree.Predict([]int64{5})
	_ = tree.Predict(nil)
	if tree.Predict([]int64{0, 10}) != 1 {
		t.Fatal("full vector misprediction")
	}
}

func TestDepthSizeCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := axisDataset(rng, 200)
	tree, _ := Train(X, y, Config{MaxDepth: 6})
	if d := tree.Depth(); d < 1 || d > 6 {
		t.Fatalf("depth = %d", d)
	}
	ops, bytes := tree.Cost()
	if ops != int64(tree.Depth()+1) || bytes != int64(tree.Size())*24 {
		t.Fatalf("cost = %d,%d", ops, bytes)
	}
	empty := &Tree{}
	if empty.Depth() != -1 || empty.Predict([]int64{1}) != 0 {
		t.Fatal("empty tree semantics")
	}
}

// TestDeterminism: training twice on the same data yields identical trees.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := axisDataset(rng, 300)
	a, _ := Train(X, y, Config{})
	b, _ := Train(X, y, Config{})
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}

// TestImportanceNormalized: Gini importances are non-negative and sum to ~1
// whenever the tree split at all.
func TestImportanceNormalized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		X, y := axisDataset(rng, 100)
		tree, err := Train(X, y, Config{})
		if err != nil {
			return false
		}
		imp := tree.Importance()
		sum := 0.0
		for _, v := range imp {
			if v < 0 {
				return false
			}
			sum += v
		}
		return tree.Size() == 1 || math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLeafPurity: every leaf's label is the majority of samples routed to it
// (checked indirectly: for consistent labelling, training accuracy must be
// perfect when depth is unconstrained and every point is distinct).
func TestPerfectFitOnDistinctPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seen := map[int64]bool{}
	var X [][]int64
	var y []int64
	for len(X) < 64 {
		v := rng.Int63n(10000)
		if seen[v] {
			continue
		}
		seen[v] = true
		X = append(X, []int64{v})
		y = append(y, rng.Int63n(5))
	}
	tree, err := Train(X, y, Config{MaxDepth: 30, MinSamples: 1, MaxThresholds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(X, y); acc != 1.0 {
		t.Fatalf("distinct-point fit accuracy %.3f", acc)
	}
}

func TestOnlineRetrainsAndAdapts(t *testing.T) {
	o := NewOnline(OnlineConfig{
		Tree:         Config{MaxDepth: 6, MinSamples: 1},
		Window:       200,
		RetrainEvery: 50,
	})
	if o.Predict([]int64{1}, -99) != -99 {
		t.Fatal("untrained online should return default")
	}
	// Phase 1: y = 1 iff x > 10.
	for i := 0; i < 200; i++ {
		x := int64(i % 20)
		label := int64(0)
		if x > 10 {
			label = 1
		}
		o.Observe([]int64{x}, label)
	}
	if o.Trains() == 0 || o.Tree() == nil {
		t.Fatal("no training happened")
	}
	if o.Predict([]int64{15}, -1) != 1 || o.Predict([]int64{5}, -1) != 0 {
		t.Fatal("phase-1 function not learned")
	}
	// Phase 2: inverted labels; the window slides and the model must flip.
	for i := 0; i < 400; i++ {
		x := int64(i % 20)
		label := int64(1)
		if x > 10 {
			label = 0
		}
		o.Observe([]int64{x}, label)
	}
	if o.Predict([]int64{15}, -1) != 0 || o.Predict([]int64{5}, -1) != 1 {
		t.Fatal("model did not adapt to phase 2")
	}
	if o.WindowSize() != 200 {
		t.Fatalf("window = %d", o.WindowSize())
	}
}

// TestOnlineWindowSlidesInOrder streams three windows' worth of samples and
// checks, after every one, that Window returns exactly the most recent
// samples, oldest first.
func TestOnlineWindowSlidesInOrder(t *testing.T) {
	const window = 16
	o := NewOnline(OnlineConfig{
		Tree:         Config{MaxDepth: 2, MinSamples: 1},
		Window:       window,
		RetrainEvery: 5,
	})
	for i := 0; i < 3*window; i++ {
		o.Observe([]int64{int64(i), int64(-i)}, int64(i%3))
		xs, ys := o.Window()
		first := max(0, i+1-window)
		if len(xs) != i+1-first || len(ys) != len(xs) || o.WindowSize() != len(xs) {
			t.Fatalf("after %d samples: %d rows, %d labels, size %d", i+1, len(xs), len(ys), o.WindowSize())
		}
		for j := range xs {
			want := first + j
			if xs[j][0] != int64(want) || xs[j][1] != int64(-want) || ys[j] != int64(want%3) {
				t.Fatalf("after %d samples: slot %d holds (%v, %d), want sample %d", i+1, j, xs[j], ys[j], want)
			}
		}
	}
	if o.Trains() != 3*window/5 {
		t.Fatalf("%d retrains, want %d", o.Trains(), 3*window/5)
	}
}

// TestOnlineObserveCostIsNotTheWindow: once the window is full, an Observe
// that does not retrain counts one sample in and one out; it must not copy
// the window, nor the row.
func TestOnlineObserveCostIsNotTheWindow(t *testing.T) {
	const window = 4096
	o := NewOnline(OnlineConfig{Window: window, RetrainEvery: 1 << 30})
	x := []int64{1, 2, 3, 4}
	for i := 0; i < window; i++ {
		o.Observe(x, 0)
	}
	// The window stores distinct samples in flat arrays: a sample it holds
	// already is a count, not a copy.
	if allocs := testing.AllocsPerRun(1000, func() { o.Observe(x, 1) }); allocs > 0 {
		t.Fatalf("%.1f allocations per full-window Observe, want 0", allocs)
	}
}
