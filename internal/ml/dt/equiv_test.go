package dt

import (
	"fmt"
	"math"
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
}

func (c equivCase) String() string {
	return fmt.Sprintf("seed=%d n=%d nf=%d span=2^%d classes=%d cfg=%+v noise=%x",
		c.seed, c.n, c.nf, c.spanBits, c.classes, c.cfg, c.noise)
}

// dataset builds the case's rows. Labels follow the features loosely (a sum
// of two of them, bucketed) with a fifth reassigned at random, so trees grow
// deep, pure nodes appear at every depth and gain ties are common at small
// spans.
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
	return X, y
}

// equivCases returns hand-picked corner cases followed by seeded random ones.
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
	return cases
}

// checkEquivalent trains on (X, y) with both builders and requires the same
// tree: every node's feature, threshold, children and label, and the per-
// feature gains behind Importance, bit for bit.
func checkEquivalent(t *testing.T, X [][]int64, y []int64, cfg Config) {
	t.Helper()
	got, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refTrain(X, y, cfg)
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
		if i < 14 || i%16 == 0 {
			f.Add(c.seed, uint16(c.n), uint8(c.nf), uint8(c.spanBits), uint16(c.classes),
				uint8(c.cfg.MaxDepth), uint8(c.cfg.MinSamples), uint8(c.cfg.MaxThresholds), c.noise)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, nf, spanBits uint8, classes uint16,
		maxDepth, minSamples, maxThresholds uint8, noise []byte) {
		c := equivCase{
			seed:     seed,
			n:        2 + int(n)%599,
			nf:       1 + int(nf)%8,
			spanBits: 1 + int(spanBits)%61,
			cfg:      Config{MaxDepth: int(maxDepth) % 20, MinSamples: int(minSamples) % 20, MaxThresholds: int(maxThresholds) % 61},
			noise:    noise,
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
