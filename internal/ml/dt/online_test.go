package dt

import (
	"math/rand"
	"slices"
	"testing"
)

// windowRun drives an Online through one sequence of observations: rows drawn
// from a pool of a few (most samples repeat one seen before, and a row recurs
// under several labels), and every every-th step a fresh row. Whenever the
// Online has just retrained, its tree, and a Fit of the window, must be the
// tree Train grows on the window's rows; and the window must hold exactly the
// last size samples, oldest first.
func windowRun(t *testing.T, seed int64, size, width, every, steps, pool int, cfg Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int64, pool)
	for i := range rows {
		rows[i] = make([]int64, width)
		for f := range rows[i] {
			rows[i][f] = rng.Int63n(5) - 2
		}
	}
	o := NewOnline(OnlineConfig{Tree: cfg, Window: size, RetrainEvery: every})
	var refX [][]int64
	var refY []int64
	for step := 1; step <= steps; step++ {
		x := rows[rng.Intn(pool)]
		if rng.Intn(every+1) == 0 {
			x = make([]int64, width)
			for f := range x {
				x[f] = rng.Int63() >> rng.Intn(63)
			}
		}
		y := int64(rng.Intn(3)) * 100
		o.Observe(x, y)
		refX, refY = append(refX, x), append(refY, y)
		if len(refX) > size {
			refX, refY = refX[1:], refY[1:]
		}
		if step%every != 0 {
			continue
		}
		X, Y := o.Window()
		if !slices.EqualFunc(X, refX, slices.Equal[[]int64]) || !slices.Equal(Y, refY) {
			t.Fatalf("step %d: window holds %v %v, want %v %v", step, X, Y, refX, refY)
		}
		want, err := Train(X, Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSameTree(t, o.Tree(), want)
		got, err := o.Fit()
		if err != nil {
			t.Fatal(err)
		}
		checkSameTree(t, got, want)
	}
	if o.Trains() != steps/every {
		t.Fatalf("%d retrains over %d steps, want %d", o.Trains(), steps, steps/every)
	}
}

func FuzzOnlineWindow(f *testing.F) {
	for _, c := range []struct {
		seed                                int64
		size, width, every, pool, steps     uint8
		maxDepth, minSamples, maxThresholds uint8
	}{
		{1, 0, 0, 0, 0, 40, 0, 0, 0},     // a window of one sample, fit after every step
		{2, 63, 8, 4, 3, 250, 11, 0, 47}, // width 9, wider than a window of samples
		{3, 15, 2, 6, 7, 200, 3, 3, 1},
		{4, 31, 7, 9, 12, 255, 0, 1, 0},
		{5, 7, 4, 2, 1, 120, 5, 0, 2}, // a pool of two rows
	} {
		f.Add(c.seed, c.size, c.width, c.every, c.pool, c.steps, c.maxDepth, c.minSamples, c.maxThresholds)
	}
	f.Fuzz(func(t *testing.T, seed int64, size, width, every, pool, steps, maxDepth, minSamples, maxThresholds uint8) {
		cfg := Config{MaxDepth: int(maxDepth) % 14, MinSamples: int(minSamples) % 6, MaxThresholds: int(maxThresholds) % 49}
		windowRun(t, seed, 1+int(size)%64, 1+int(width)%9, 1+int(every)%16, 2*int(steps), 1+int(pool)%16, cfg)
	})
}

// trainingWindow returns a one-shot window over (X, y) loaded into its
// builder and prepared for growing.
func trainingWindow(t *testing.T, X [][]int64, y []int64, cfg Config) *builder {
	t.Helper()
	o := NewOnline(OnlineConfig{Tree: cfg, Window: len(X), RetrainEvery: len(X) + 1})
	for i, x := range X {
		o.Observe(x, y[i])
	}
	b := &o.b
	if err := b.load(&o.w); err != nil {
		t.Fatal(err)
	}
	b.prepare(cfg)
	return b
}

// rootSplit runs bestSplit on the root of a prepared builder over all its
// features and returns its outcome and the feature list it pushed for the
// root's children.
func rootSplit(b *builder) (feat int, code int32, gain, parentImp float64, live []int32) {
	clear(b.counts)
	n := 0
	for i := range b.n {
		b.counts[b.cls[i]] += int(b.weight[i])
		n += int(b.weight[i])
	}
	sq := 0
	for _, c := range b.counts {
		sq += c * c
	}
	all := slices.Clone(b.feats)
	top := len(b.feats)
	feat, code, _, gain, _ = b.bestSplit(0, b.n, n, all)
	return feat, code, gain, float64(n) - float64(sq)/float64(n), slices.Clone(b.feats[top:])
}

// poison makes any tally of feature f index out of its table, so that a
// node which tallies it panics.
func poison(b *builder, f int) {
	for i := range b.n {
		b.codes[f*b.n+i] = 1 << 30
	}
}

// TestGrowSkipsAFeatureConstantAtTheRoot: feature 1 holds one value, so the
// root has no candidate on it and no node below may tally it. The root's
// children are grown with the feature poisoned, and the tree Train grows must
// still be the reference builder's.
func TestGrowSkipsAFeatureConstantAtTheRoot(t *testing.T) {
	var X [][]int64
	var y []int64
	for i := range 48 {
		X = append(X, []int64{int64(i % 6), 7, int64(i % 5)})
		y = append(y, int64((i%6)/2+(i%5)%2))
	}
	cfg := Config{MinSamples: 1}
	b := trainingWindow(t, X, y, cfg)
	b.t = &Tree{NumFeats: 3, featGain: make([]float64, 3)}
	feat, code, _, _, live := rootSplit(b)
	if !slices.Equal(live, []int32{0, 2}) {
		t.Fatalf("root pushes features %v for its children, want [0 2]", live)
	}
	poison(b, 1)
	mid := b.partition(0, b.n, feat, code)
	b.grow(0, mid, 1, live) // panics if it tallies feature 1
	b.grow(mid, b.n, 1, live)

	got, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSameTree(t, got, refTrain(X, y, cfg))
}

// TestWarmFitAllocations: a fit of a window whose grower scratch is warm
// allocates the tree and nothing else — the Tree, its nodes (an array no
// larger than a tree over the distinct samples can need) and its per-feature
// gains.
func TestWarmFitAllocations(t *testing.T) {
	X, y := windowDataset(1, 4096, 8)
	o := NewOnline(OnlineConfig{Tree: windowConfig, Window: len(X), RetrainEvery: len(X) + 1})
	for i, x := range X {
		o.Observe(x, y[i])
	}
	var tree *Tree
	allocs := testing.AllocsPerRun(20, func() { tree, _ = o.Fit() })
	if allocs > 3 {
		t.Fatalf("%.1f allocations per warm fit, want 3", allocs)
	}
	if distinct := o.w.live; cap(tree.Nodes) > 2*distinct-1 {
		t.Fatalf("%d nodes in an array of %d, over 2·%d-1", len(tree.Nodes), cap(tree.Nodes), distinct)
	}
}

// TestAnotherWidthKeepsTheWindowFromFitting: a sample of another width than
// the window's stays in the window, which cannot fit while it does; the
// learner keeps its tree, and fits again once the sample has slid out.
func TestAnotherWidthKeepsTheWindowFromFitting(t *testing.T) {
	o := NewOnline(OnlineConfig{Tree: Config{MinSamples: 1}, Window: 4, RetrainEvery: 1})
	for i := range 4 {
		o.Observe([]int64{int64(i), 0}, int64(i%2))
	}
	before := o.Trains()
	o.Observe([]int64{9}, 1)
	if X, _ := o.Window(); !slices.Equal(X[3], []int64{9}) {
		t.Fatalf("window holds %v, want the short sample last", X)
	}
	if _, err := o.Fit(); err == nil {
		t.Fatal("a window holding a short sample fitted")
	}
	for i := range 3 {
		o.Observe([]int64{int64(i), 1}, int64(i%2))
	}
	if o.Trains() != before {
		t.Fatalf("%d retrains while the short sample was in the window, want %d", o.Trains(), before)
	}
	o.Observe([]int64{3, 1}, 1) // evicts the short sample
	if o.Trains() != before+1 {
		t.Fatalf("%d retrains once the short sample left, want %d", o.Trains(), before+1)
	}
	X, y := o.Window()
	want, err := Train(X, y, Config{MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSameTree(t, o.Tree(), want)
}

var benchFit *Tree

// BenchmarkOnlineFit is rmtprefetch's retrain on a warm window: the window
// slides by the rows a retrain step adds, then fits.
func BenchmarkOnlineFit(b *testing.B) {
	const step = 512
	X, y := windowDataset(1, 4096+64*step, 8)
	o := NewOnline(OnlineConfig{Tree: windowConfig, Window: 4088, RetrainEvery: 1 << 30})
	for i := range 4088 {
		o.Observe(X[i], y[i])
	}
	next := 4088
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for range step {
			if next == len(X) {
				next = 0
			}
			o.Observe(X[next], y[next])
			next++
		}
		benchFit, _ = o.Fit()
	}
}

// TestOnlineFitBesideObserve fits from two goroutines while a third observes
// and retrains (go test -race watches the window and the fit scratch).
func TestOnlineFitBesideObserve(t *testing.T) {
	X, y := windowDataset(2, 3000, 4)
	o := NewOnline(OnlineConfig{Tree: windowConfig, Window: 512, RetrainEvery: 128})
	done := make(chan struct{})
	var fits [2]int
	for g := range fits {
		go func() {
			defer func() { done <- struct{}{} }()
			for range 20 {
				if tree, err := o.Fit(); err == nil && tree.Size() > 0 {
					fits[g]++
				}
			}
		}()
	}
	for i, x := range X {
		o.Observe(x, y[i])
	}
	<-done
	<-done
	if o.Trains() != len(X)/128 {
		t.Fatalf("%d retrains, want %d", o.Trains(), len(X)/128)
	}
	X, y = o.Window()
	want, err := Train(X, y, windowConfig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Fit()
	if err != nil {
		t.Fatal(err)
	}
	checkSameTree(t, got, want)
}

// TestHashesSpreadHighBits: values that differ only above bit 45 must still
// start their probes from many slots of a table of 2^13, in the window's
// index and in encode's table, or finding them would take time quadratic in
// their number.
func TestHashesSpreadHighBits(t *testing.T) {
	const n, mask = 4096, 2<<12 - 1
	rows, values := map[uint64]bool{}, map[uint64]bool{}
	for j := range int64(n) {
		rows[sampleHash([]int64{j << 45}, 0)&mask] = true
		values[mix(uint64(j<<45))&mask] = true
	}
	if len(rows) < n/2 || len(values) < n/2 {
		t.Fatalf("%d values of the form j<<45 start from %d slots as rows and %d as values, of %d",
			n, len(rows), len(values), mask+1)
	}
}
