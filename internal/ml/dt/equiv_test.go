package dt

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// equivCase describes one generated dataset and training configuration for
// the differential test of Train against refTrain. The fuzz target mutates
// the same fields.
type equivCase struct {
	seed     int64
	n        int // rows, 2..600
	nf       int // features, 1..8
	spanBits int // feature values are drawn from [-2^(spanBits-1), 2^(spanBits-1)), 1..61
	classes  int // 1..n
	cfg      Config
	noise    []byte // added to the features in row-major order; lets a fuzzer place ties
	dup      int    // each row occurs 1..dup times, the copies scattered; <= 1 leaves the n rows as drawn
}

func (c equivCase) String() string {
	return fmt.Sprintf("seed=%d n=%d nf=%d span=2^%d classes=%d cfg=%+v noise=%x dup=%d",
		c.seed, c.n, c.nf, c.spanBits, c.classes, c.cfg, c.noise, c.dup)
}

// dataset builds the case's rows. Labels follow the features loosely (a sum
// of two of them, bucketed) with a fifth reassigned at random, so trees grow
// deep, pure nodes appear at every depth and gain ties are common at small
// spans. With dup set, the rows are then repeated, label and all, and
// shuffled: Train meets weights, refTrain just more rows.
func (c equivCase) dataset() (X [][]int64, y []int64) {
	rng := rand.New(rand.NewSource(c.seed))
	span := int64(1) << c.spanBits
	X = make([][]int64, c.n)
	y = make([]int64, c.n)
	for i := range X {
		row := make([]int64, c.nf)
		for f := range row {
			row[f] = rng.Int63n(span) - span/2
		}
		X[i] = row
	}
	for j, v := range c.noise {
		X[(j/c.nf)%c.n][j%c.nf] += int64(int8(v))
	}
	for i, row := range X {
		sum := row[0]>>1 + row[len(row)-1]>>1 + span/2 // in [0, span)
		k := int64(float64(sum) / float64(span) * float64(c.classes))
		k = max(0, min(k, int64(c.classes)-1)) // noise can push sum just outside [0, span)
		if rng.Intn(5) == 0 {
			k = rng.Int63n(int64(c.classes))
		}
		y[i] = 7*k - 11 // labels need not be dense or non-negative
	}
	if c.dup > 1 {
		for i := range X[:c.n] {
			for rep := rng.Intn(c.dup); rep > 0; rep-- {
				X, y = append(X, X[i]), append(y, y[i])
			}
		}
		rng.Shuffle(len(X), func(i, j int) {
			X[i], X[j] = X[j], X[i]
			y[i], y[j] = y[j], y[i]
		})
	}
	return X, y
}

// equivCases returns hand-picked corner cases followed by seeded random ones,
// and then the same again with duplicated rows.
func equivCases() []equivCase {
	cases := []equivCase{
		{seed: 1, n: 2, nf: 1, spanBits: 1, classes: 2, cfg: Config{MinSamples: 1}},
		{seed: 2, n: 2, nf: 1, spanBits: 61, classes: 2, cfg: Config{MinSamples: 2}},
		{seed: 3, n: 50, nf: 3, spanBits: 1, classes: 2, cfg: Config{MinSamples: 1}},             // few distinct values, many ties
		{seed: 4, n: 64, nf: 2, spanBits: 20, classes: 1, cfg: Config{}},                         // one class: a single leaf
		{seed: 5, n: 600, nf: 8, spanBits: 30, classes: 600, cfg: Config{MinSamples: 1}},         // as many classes as rows
		{seed: 6, n: 300, nf: 4, spanBits: 40, classes: 3, cfg: Config{MaxThresholds: 1}},        // one candidate per feature
		{seed: 7, n: 300, nf: 4, spanBits: 40, classes: 3, cfg: Config{MaxThresholds: 60}},       // step 4 at the root
		{seed: 8, n: 97, nf: 1, spanBits: 50, classes: 5, cfg: Config{MaxThresholds: 48}},        // 96 candidates: step 2, 48 taken
		{seed: 9, n: 96, nf: 1, spanBits: 50, classes: 5, cfg: Config{MaxThresholds: 48}},        // 95 candidates: step 1, all taken
		{seed: 10, n: 400, nf: 5, spanBits: 8, classes: 4, cfg: Config{MaxDepth: 1}},             // a stump
		{seed: 11, n: 400, nf: 5, spanBits: 8, classes: 4, cfg: Config{MaxDepth: 40}},            // depth bound never reached
		{seed: 12, n: 200, nf: 6, spanBits: 3, classes: 8, cfg: Config{MinSamples: 50}},          // sample bound cuts early
		{seed: 13, n: 120, nf: 2, spanBits: 61, classes: 2, cfg: Config{MinSamples: 1}},          // widest span the reference supports
		{seed: 14, n: 30, nf: 2, spanBits: 4, classes: 3, noise: []byte{0x7f, 0x80, 0x7f, 0x80}}, // noise path
	}
	rng := rand.New(rand.NewSource(20211))
	for len(cases) < 320 {
		n := 2 + rng.Intn(599)
		if rng.Intn(3) == 0 {
			n = 2 + rng.Intn(40) // small trees are where the edge conditions live
		}
		cases = append(cases, equivCase{
			seed:     rng.Int63(),
			n:        n,
			nf:       1 + rng.Intn(8),
			spanBits: 1 + rng.Intn(61),
			classes:  1 + rng.Intn(min(n, 12)),
			cfg: Config{
				MaxDepth:      1 + rng.Intn(14),
				MinSamples:    1 + rng.Intn(8),
				MaxThresholds: 1 + rng.Intn(60),
			},
		})
	}
	cases = append(cases,
		equivCase{seed: 15, n: 40, nf: 2, spanBits: 2, classes: 2, dup: 9, cfg: Config{MinSamples: 1}},         // at most 32 distinct samples
		equivCase{seed: 16, n: 150, nf: 8, spanBits: 30, classes: 5, dup: 4, cfg: Config{MinSamples: 7}},       // sample bound met by weight, not by rows
		equivCase{seed: 17, n: 100, nf: 1, spanBits: 50, classes: 4, dup: 3, cfg: Config{MaxThresholds: 48}},   // subsampled candidates
		equivCase{seed: 18, n: 12, nf: 3, spanBits: 1, classes: 12, dup: 50, cfg: Config{MinSamples: 1}},       // heavy rows, same row under many labels
		equivCase{seed: 19, n: 60, nf: 4, spanBits: 6, classes: 3, dup: 5, noise: []byte{1, 0xff, 2, 0xfe, 3}}, // noise before duplication
	)
	for len(cases) < 420 {
		n := 2 + rng.Intn(149) // the reference is quadratic in the expanded rows
		cases = append(cases, equivCase{
			seed:     rng.Int63(),
			n:        n,
			nf:       1 + rng.Intn(8),
			spanBits: 1 + rng.Intn(24),
			classes:  1 + rng.Intn(min(n, 12)),
			dup:      2 + rng.Intn(8),
			cfg: Config{
				MaxDepth:      1 + rng.Intn(14),
				MinSamples:    1 + rng.Intn(12),
				MaxThresholds: 1 + rng.Intn(60),
			},
		})
	}
	return cases
}

// checkEquivalent trains on (X, y) with both builders and requires the same
// tree: every node's feature, threshold, children and label, and the per-
// feature gains behind Importance, bit for bit.
func checkEquivalent(t *testing.T, X [][]int64, y []int64, cfg Config) *Tree {
	t.Helper()
	got, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSameTree(t, got, refTrain(X, y, cfg))
	return got
}

func checkSameTree(t *testing.T, got, want *Tree) {
	t.Helper()
	if !slices.Equal(got.Nodes, want.Nodes) {
		for i := range want.Nodes {
			if i >= len(got.Nodes) || got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("node %d differs (got %d nodes, want %d): got %+v, want %+v",
					i, len(got.Nodes), len(want.Nodes), got.Nodes[min(i, len(got.Nodes)-1)], want.Nodes[i])
			}
		}
		t.Fatalf("got %d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	if !slices.Equal(got.featGain, want.featGain) {
		t.Fatalf("feature gains differ: got %v, want %v", got.featGain, want.featGain)
	}
	if !slices.Equal(got.Importance(), want.Importance()) {
		t.Fatalf("importance differs: got %v, want %v", got.Importance(), want.Importance())
	}
}

func TestTrainMatchesReference(t *testing.T) {
	for _, c := range equivCases() {
		X, y := c.dataset()
		t.Run(fmt.Sprintf("seed%d", c.seed), func(t *testing.T) {
			t.Log(c)
			checkEquivalent(t, X, y, c.cfg)
		})
	}
}

// TestTrainWhereOnlyWeightsDecide trains on sets whose distinct rows, counted
// one each, would give a different tree than their samples do.
func TestTrainWhereOnlyWeightsDecide(t *testing.T) {
	type sample struct {
		x, label int64
		times    int
	}
	for _, tc := range []struct {
		name      string
		samples   []sample
		cfg       Config
		nodes     int
		rootLabel int64
	}{
		{"one sample short of MinSamples", []sample{{1, 10, 2}, {2, 20, 2}}, Config{MinSamples: 5}, 1, 10},
		{"MinSamples met by weight", []sample{{1, 10, 2}, {2, 20, 3}}, Config{MinSamples: 5}, 3, 20},
		// Two rows of one class: the majority holds every sample but not "as
		// many as there are rows".
		{"pure by weight", []sample{{1, 10, 3}, {2, 10, 1}}, Config{MinSamples: 1}, 1, 10},
		// The majority class has as many samples as the node has rows.
		{"impure though majority equals row count", []sample{{1, 10, 2}, {2, 20, 1}}, Config{MinSamples: 1}, 3, 10},
		// 2:2 by samples, 1:2 by rows.
		{"majority tie goes to the lower label", []sample{{1, 3, 2}, {2, 5, 1}, {3, 5, 1}}, Config{MinSamples: 1}, 3, 3},
		{"heavier row outvotes more rows", []sample{{1, 3, 1}, {2, 3, 1}, {3, 5, 3}}, Config{MinSamples: 1}, 3, 5},
		// x=1 cannot be split further: its leaf predicts the heavier label.
		{"same row with two labels", []sample{{1, 10, 3}, {1, 20, 5}, {2, 10, 1}}, Config{MinSamples: 1}, 3, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var X [][]int64
			var y []int64
			// Interleave the copies so that no sample's are adjacent.
			for rep := 0; ; rep++ {
				before := len(X)
				for _, s := range tc.samples {
					if rep < s.times {
						X, y = append(X, []int64{s.x}), append(y, s.label)
					}
				}
				if len(X) == before {
					break
				}
			}
			tree := checkEquivalent(t, X, y, tc.cfg)
			if tree.Size() != tc.nodes || tree.Nodes[0].Label != tc.rootLabel {
				t.Fatalf("%d nodes, root label %d; want %d nodes, root label %d",
					tree.Size(), tree.Nodes[0].Label, tc.nodes, tc.rootLabel)
			}
		})
	}
}

// TestTrainSurvivesHashCollisions hands train a hash that sends every sample
// to the same slot: which samples are the same one is decided by comparing
// them, so the tree does not change (only the time to find it does).
func TestTrainSurvivesHashCollisions(t *testing.T) {
	collide := func([]int64, int64) uint64 { return 0 }
	for _, c := range []equivCase{
		{seed: 1, n: 30, nf: 2, spanBits: 2, classes: 3, dup: 6, cfg: Config{MinSamples: 1}},
		{seed: 2, n: 200, nf: 8, spanBits: 40, classes: 5, cfg: Config{}}, // every row distinct
		{seed: 3, n: 100, nf: 3, spanBits: 5, classes: 4, dup: 3, cfg: Config{MinSamples: 6}},
	} {
		X, y := c.dataset()
		got, err := train(X, y, c.cfg, collide)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(c)
		checkSameTree(t, got, refTrain(X, y, c.cfg))
	}
}

// TestWindowCountsDistinctSamples fills a window with repeated samples, one
// of them a row seen under two labels, and reads back its distinct samples
// and their weights, with the real hash and with one under which every
// sample collides; and again with windows of four and two, so that samples
// leave it, and (in the window of two) distinct samples leave its index.
func TestWindowCountsDistinctSamples(t *testing.T) {
	X := [][]int64{{1, 2}, {3, 4}, {1, 2}, {1, 2}, {3, 4}, {1, 2}, {5, 6}}
	y := []int64{7, 7, 7, 8, 7, 7, 7} // sample 3 is row {1, 2} under another label
	for name, hash := range map[string]func([]int64, int64) uint64{
		"sampleHash": sampleHash,
		"constant":   func([]int64, int64) uint64 { return 0 },
	} {
		for _, c := range []struct {
			size int
			want map[[3]int64]int32
		}{
			{len(X), map[[3]int64]int32{{1, 2, 7}: 3, {3, 4, 7}: 2, {1, 2, 8}: 1, {5, 6, 7}: 1}},
			{4, map[[3]int64]int32{{3, 4, 7}: 1, {1, 2, 7}: 1, {1, 2, 8}: 1, {5, 6, 7}: 1}},
			{2, map[[3]int64]int32{{1, 2, 7}: 1, {5, 6, 7}: 1}},
		} {
			w := window{cap: c.size, hash: hash}
			for i, row := range X {
				w.add(row, y[i])
			}
			got := map[[3]int64]int32{}
			for id, wt := range w.weight {
				if wt > 0 {
					got[[3]int64(w.sample(int32(id)))] = wt
				}
			}
			if !maps.Equal(got, c.want) || w.live != len(c.want) {
				t.Errorf("%s, window of %d: distinct samples %v (%d live), want %v", name, c.size, got, w.live, c.want)
			}
			for i, row := range X[len(X)-c.size:] {
				if id := w.intern(row, y[len(X)-c.size+i]); w.weight[id] < 2 {
					t.Errorf("%s, window of %d: sample %v not found in the index", name, c.size, row)
				}
			}
		}
	}
}

// TestTallyWhenThePackedKeyOverflows drives the sorting tally on a hand-made
// builder whose feature has 2^17+1 values under 2^16+1 classes. With weights
// of a few bits the (code, class, weight) triple packs into one word; with
// one row standing for 2^30 samples it does not and the comparator sort takes
// over. Both must agree with a tally kept in a map.
func TestTallyWhenThePackedKeyOverflows(t *testing.T) {
	const n, nvals, nclasses = 2000, 1<<17 + 1, 1<<16 + 1
	for _, heavy := range []int32{5, 1 << 30} {
		rng := rand.New(rand.NewSource(int64(heavy)))
		b := builder{
			n:      n,
			labels: make([]int64, nclasses),
			cbits:  bits.Len(nclasses - 1),
			vals:   [][]int64{make([]int64, nvals)},
			codes:  make([]int32, n),
			cls:    make([]int32, n),
			weight: make([]int32, n),
			rows:   make([]int32, n),
			keys:   make([]uint64, n),
			runs:   make([]run, n),
		}
		type pair struct{ code, cls int32 }
		want := map[pair]int32{}
		for i := range b.rows {
			b.rows[i] = int32(i)
			// A handful of pairs recur; the extremes of both fields occur.
			b.codes[i] = []int32{0, nvals - 1, rng.Int31n(nvals), rng.Int31n(4)}[rng.Intn(4)]
			b.cls[i] = []int32{0, nclasses - 1, rng.Int31n(nclasses), rng.Int31n(2)}[rng.Intn(4)]
			b.weight[i] = 1 + rng.Int31n(4)
		}
		b.weight[n/2] = heavy
		b.wbits = bits.Len32(uint32(heavy))
		for i := range b.rows {
			want[pair{b.codes[i], b.cls[i]}] += b.weight[i]
		}
		wide := bits.Len(nvals-1)+b.cbits+b.wbits > 64
		if wide != (heavy == 1<<30) {
			t.Fatalf("heavy=%d: wide=%v", heavy, wide)
		}
		runs := b.tally(0, 0, n)
		if len(runs) != len(want) || len(runs) == n {
			t.Fatalf("heavy=%d: %d runs, want %d (and fewer than %d rows)", heavy, len(runs), len(want), n)
		}
		for j, r := range runs {
			if r.n != want[pair{r.code, r.cls}] {
				t.Fatalf("heavy=%d: run %+v, want weight %d", heavy, r, want[pair{r.code, r.cls}])
			}
			if j > 0 && cmp.Or(cmp.Compare(runs[j-1].code, r.code), cmp.Compare(runs[j-1].cls, r.cls)) >= 0 {
				t.Fatalf("heavy=%d: runs %+v and %+v out of order", heavy, runs[j-1], r)
			}
		}
	}
}

// windowDataset is rmtprefetch's training-set shape: every row is a width-8
// window of one page-delta series and its label is the next delta, so the
// rows overlap and every feature column is the same series shifted by one.
// The series is modelled on the Table-1 video trace: a strided scan with a
// row jump and its return, a little jitter on the jump, and stray accesses
// that show up as a clamped far jump out and back — seven distinct values.
func windowDataset(seed int64, length, width int) (X [][]int64, y []int64) {
	const clamp = 1 << 17
	rng := rand.New(rand.NewSource(seed))
	series := make([]int64, length)
	for i := range series {
		switch i % 9 {
		case 5:
			series[i] = 65531
			if rng.Intn(12) == 0 {
				series[i] += rng.Int63n(3) - 1
			}
		case 8:
			series[i] = -65528
		default:
			series[i] = 1
		}
		if i > 0 && series[i-1] == clamp {
			series[i] = -clamp
		} else if rng.Intn(24) == 0 {
			series[i] = clamp
		}
	}
	for i := width; i < length; i++ {
		X = append(X, series[i-width:i])
		y = append(y, series[i])
	}
	return X, y
}

// windowConfig is rmtprefetch's tree configuration.
var windowConfig = Config{MaxDepth: 12, MinSamples: 2, MaxThresholds: 48}

func TestTrainMatchesReferenceOnWindows(t *testing.T) {
	X, y := windowDataset(1, 4096, 8)
	if len(X) != 4088 {
		t.Fatalf("%d rows", len(X))
	}
	checkEquivalent(t, X, y, windowConfig)
}

func FuzzTrainEquivalence(f *testing.F) {
	for i, c := range equivCases() {
		if i < 14 || i%16 == 0 || (c.dup > 1 && i%4 == 0) {
			f.Add(c.seed, uint16(c.n), uint8(c.nf), uint8(c.spanBits), uint16(c.classes),
				uint8(c.cfg.MaxDepth), uint8(c.cfg.MinSamples), uint8(c.cfg.MaxThresholds), c.noise, uint8(c.dup))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, nf, spanBits uint8, classes uint16,
		maxDepth, minSamples, maxThresholds uint8, noise []byte, dup uint8) {
		c := equivCase{
			seed:     seed,
			n:        2 + int(n)%599,
			nf:       1 + int(nf)%8,
			spanBits: 1 + int(spanBits)%61,
			cfg:      Config{MaxDepth: int(maxDepth) % 20, MinSamples: int(minSamples) % 20, MaxThresholds: int(maxThresholds) % 61},
			noise:    noise,
			dup:      int(dup) % 10,
		}
		if c.dup > 1 {
			c.n = 2 + c.n%149 // the reference is quadratic in the expanded rows
		}
		c.classes = 1 + int(classes)%c.n
		X, y := c.dataset()
		checkEquivalent(t, X, y, c.cfg)
	})
}

// TestMidpointDoesNotOverflow covers feature values more than MaxInt64
// apart, where a midpoint computed as a+(b-a)/2 in int64 wraps to below a
// and the split separates nothing.
func TestMidpointDoesNotOverflow(t *testing.T) {
	vals := []int64{math.MinInt64, -3 << 61, 0, 3 << 61, math.MaxInt64}
	var X [][]int64
	var y []int64
	for i, v := range vals {
		for rep := 0; rep < 3; rep++ {
			X = append(X, []int64{v, vals[len(vals)-1-i]})
			y = append(y, int64(i))
		}
	}
	tree, err := Train(X, y, Config{MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(X, y); acc != 1 {
		t.Fatalf("accuracy %.3f on separable extremes, want 1", acc)
	}
	internal := 0
	for i, nd := range tree.Nodes {
		if nd.Leaf() {
			continue
		}
		internal++
		// The threshold must sit between two adjacent values of its feature:
		// a <= thresh < b.
		j, _ := slices.BinarySearch(vals, nd.Thresh)
		if j < len(vals) && vals[j] == nd.Thresh {
			j++
		}
		if j == 0 || j == len(vals) {
			t.Fatalf("node %d: threshold %d separates nothing in %v", i, nd.Thresh, vals)
		}
		a, b := vals[j-1], vals[j]
		if want := a + int64(uint64(b-a)/2); nd.Thresh != want {
			t.Fatalf("node %d: threshold %d is not the midpoint %d of [%d, %d]", i, nd.Thresh, want, a, b)
		}
	}
	if internal != len(vals)-1 {
		t.Fatalf("%d internal nodes, want %d", internal, len(vals)-1)
	}
}

// TestTrainAllocationsDoNotGrowWithTheTree pins Train's allocations to a
// ceiling that a tree of a few dozen nodes and one of over a thousand both
// meet: scratch is sized once per call, not per node or per candidate (what
// still grows, with the logarithm of the tree, is the doubling of Nodes).
func TestTrainAllocationsDoNotGrowWithTheTree(t *testing.T) {
	const ceiling = 48
	sizes := make([]int, 0, 2)
	for _, c := range []equivCase{
		{seed: 1, n: 64, nf: 8, spanBits: 20, classes: 4, cfg: windowConfig},
		{seed: 2, n: 4000, nf: 8, spanBits: 20, classes: 12, cfg: windowConfig},
	} {
		X, y := c.dataset()
		var tree *Tree
		allocs := testing.AllocsPerRun(5, func() { tree, _ = Train(X, y, c.cfg) })
		sizes = append(sizes, tree.Size())
		t.Logf("n=%d: %d nodes, %.0f allocs", c.n, tree.Size(), allocs)
		if allocs > ceiling {
			t.Errorf("n=%d: %.0f allocations per Train (%d nodes), want <= %d", c.n, allocs, tree.Size(), ceiling)
		}
	}
	if sizes[1] < 50*sizes[0] {
		t.Fatalf("tree sizes %v: the large case should dwarf the small one", sizes)
	}
}

var benchTree *Tree

// BenchmarkTrain covers both ways a node tallies a feature: window4088x8 is
// rmtprefetch's retrain (seven distinct values per feature: the dense table),
// continuous4088x8 has a distinct value per row (the sorted pairs).
func BenchmarkTrain(b *testing.B) {
	wX, wy := windowDataset(1, 4096, 8)
	cX, cy := equivCase{seed: 1, n: 4088, nf: 8, spanBits: 40, classes: 7}.dataset()
	for _, bc := range []struct {
		name string
		X    [][]int64
		y    []int64
	}{{"window4088x8", wX, wy}, {"continuous4088x8", cX, cy}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTree, _ = Train(bc.X, bc.y, windowConfig)
			}
		})
	}
}
