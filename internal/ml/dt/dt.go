// Package dt implements the integer decision trees the paper uses for
// in-kernel inference (case study #1 trains "an in-kernel integer decision
// tree that can capture more complex access patterns", with the Gini index as
// the split rule, matching the rmt_ml_dt { .split_rule = gini_index } sketch
// in Figure 1).
//
// Features, thresholds and labels are int64, so inference is integer-only:
// one compare per level, the property that makes it cheap enough for the
// kernel critical path (§3.2). Training keeps its class counts and their sums
// of squares as exact integers and ranks candidate splits by a float64 Gini
// gain computed from them.
package dt

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Node is one tree node. Leaves carry the predicted class label; internal
// nodes route on x[Feat] <= Thresh.
type Node struct {
	Feat   int32 // feature index; -1 marks a leaf
	Thresh int64 // split threshold (go left when x[Feat] <= Thresh)
	Left   int32 // index of left child
	Right  int32 // index of right child
	Label  int64 // leaf prediction
}

// Leaf reports whether the node is a leaf.
func (n Node) Leaf() bool { return n.Feat < 0 }

// Config controls tree induction.
type Config struct {
	// MaxDepth bounds tree depth (root = depth 0). Values <= 0 select 12.
	MaxDepth int
	// MinSamples stops splitting nodes with fewer samples. Values <= 0
	// select 4.
	MinSamples int
	// MaxThresholds bounds the candidate thresholds evaluated per feature
	// at a node. A feature with more candidates c (one between each pair of
	// consecutive distinct values) has every (c/MaxThresholds)-th evaluated,
	// which admits up to 2*MaxThresholds-1 of them. Values <= 0 select 32.
	MaxThresholds int
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.MaxThresholds <= 0 {
		c.MaxThresholds = 32
	}
	return c
}

// Tree is a trained integer decision tree.
type Tree struct {
	Nodes    []Node
	NumFeats int

	// featGain accumulates the total (sample-weighted) Gini impurity
	// decrease contributed by splits on each feature; the basis of Gini
	// feature importance ("feature importance ranking", §2.1 benefit #1).
	featGain []float64
}

// Train grows a tree on integer features X (row-major, one sample per row)
// with integer class labels y. All rows must share len(X[0]) features.
//
// Train fills a one-shot training window (Online's) with the samples and
// fits it (a row of another width than X[0] is an error). The window holds
// identical samples — the same row with the same label — as one distinct
// sample carrying their count as its weight: Gini induction reads a node only
// through integer class counts, and those cannot tell nine copies of a row
// from one row of weight nine. The fit replaces
// each column's values, the labels included, by their ranks among the values
// present: classes 0..C-1 and value codes 0..D-1, both ascending. A node is
// a range of one list of the distinct samples; pricing a feature's
// thresholds there is one tally of the node's weights by (code, class) and
// one sweep over the tally, so nothing is re-sorted or recounted per
// candidate.
func Train(X [][]int64, y []int64, cfg Config) (*Tree, error) {
	return train(X, y, cfg, sampleHash)
}

// train is Train with the window's hash as a parameter, so that a test can
// make every sample collide.
func train(X [][]int64, y []int64, cfg Config, hash func([]int64, int64) uint64) (*Tree, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("dt: bad training set: %d samples, %d labels", len(X), len(y))
	}
	if len(X) > math.MaxInt32 {
		return nil, fmt.Errorf("dt: %d samples exceed the trainer's limit of %d", len(X), math.MaxInt32)
	}
	w := window{cap: len(X), hash: hash}
	for i, row := range X {
		w.add(row, y[i])
	}
	var b builder
	if err := b.load(&w); err != nil {
		return nil, err
	}
	return b.fit(cfg, false), nil
}

// sampleHash mixes a row and its label into 64 bits.
func sampleHash(row []int64, label int64) uint64 {
	const m = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	h := uint64(label) * m
	for _, v := range row {
		h = (bits.RotateLeft64(h, 29) ^ uint64(v)) * m
	}
	return mix(h)
}

// mix finishes a hash so that every bit of h reaches the low ones that pick
// a slot (MurmurHash3's finalizer). A multiply carries a bit only upward, so
// without it values that differ only in high bits would all start probing
// from one slot, and finding them would take time quadratic in their number.
func mix(h uint64) uint64 {
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// denseFactor decides how a node tallies a feature: through a table with a
// cell per (code, class) pair when the feature has at most denseFactor cells
// per row of the node, by sorting the rows' pairs otherwise. Clearing and
// scanning the table costs a fraction of a nanosecond per cell, sorting some
// tens of nanoseconds per row.
const denseFactor = 8

// run is a group of a node's rows that share a feature value and a class.
type run struct {
	code int32 // rank of the feature value
	cls  int32
	n    int32 // total weight of the group
}

// builder grows a tree over n distinct rows, each standing for weight[i]
// identical samples. Every count it keeps — of a node, of a class, of one
// side of a split — is a sum of weights, that is, a count of samples; only
// the row list and its ranges count rows. An Online keeps one across fits,
// so its scratch is sized once and then reused.
type builder struct {
	cfg Config
	t   *Tree
	n   int

	weight []int32 // row -> samples it stands for
	wbits  int     // bits the largest weight takes

	labels []int64 // class id -> label, ascending
	cls    []int32 // row -> class id
	cbits  int     // bits the largest class id takes
	nf     int     // features
	// Feature f of row i is vals[f][codes[f*n+i]]: vals[f] lists the
	// feature's distinct values in ascending order.
	vals  [][]int64
	codes []int32 // and after them, the rows' classes (cls)

	// encode's scratch: its table, the distinct values of a column with
	// their order of appearance, and each one's rank by that order.
	slots []int32
	ents  []rankedEntry
	rank  []int32

	rows  []int32 // a node is rows[lo:hi]; its children split that range
	spill []int32 // partition scratch

	counts []int // class counts of the node under examination
	// lc and rc are the sweep's left and right class counts. Between sweeps
	// lc is all zero: a sweep moves every sample of the node from rc to lc
	// and then swaps the two, so no sweep has to clear C counters first.
	lc, rc []int

	table []int32  // dense (code, class) tally; all zero between uses
	keys  []uint64 // (code, class, weight) triples to sort, where the table would be too sparse
	runs  []run    // the tally under the sweep; a node has at most a run per row

	nodes []Node  // the tree under construction
	feats []int32 // a stack of the nodes' feature lists (grow)

	// The arrays that weight, codes, rows and spill, and counts, lc and rc,
	// are carved from; and the one that holds, column by column, the rows'
	// values as load copies them, and then the values that vals lists.
	i32  []int32
	ints []int
	i64  []int64
}

// rankedEntry is a distinct value and the order it first appeared in.
type rankedEntry struct {
	v int64
	e int32
}

// resize returns s with length n, reusing its array when that is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load copies w's live distinct samples out of the window: each one's weight
// and its values, column by column. The caller holds the window's lock; fit
// does the rest without it.
func (b *builder) load(w *window) error {
	if len(w.ring) == 0 {
		return fmt.Errorf("dt: empty training window")
	}
	if len(w.odd) > 0 {
		return fmt.Errorf("dt: %d samples of the window do not have its %d features", len(w.odd), w.nf)
	}
	if w.nf == 0 {
		return fmt.Errorf("dt: samples have no features")
	}
	n, cols := w.live, w.nf+1
	b.n, b.nf = n, w.nf
	// One array for the rows' weights and codes and the row lists.
	b.i32 = resize(b.i32, (cols+3)*n)
	b.weight, b.codes = b.i32[:n], b.i32[n:(cols+1)*n]
	b.rows, b.spill = b.i32[(cols+1)*n:(cols+2)*n], b.i32[(cols+2)*n:]
	b.i64 = resize(b.i64, cols*n)
	i := 0
	for id, wt := range w.weight {
		if wt == 0 {
			continue
		}
		b.weight[i] = wt
		for c, v := range w.sample(int32(id)) {
			b.i64[c*n+i] = v
		}
		i++
	}
	return nil
}

// fit grows the tree on the loaded samples. With reuse, the nodes grow in
// scratch room for the largest tree, which the builder keeps for its next
// fit, and the tree gets a copy; a tree over n distinct rows has at most n
// leaves, as no split leaves a side empty, so 2n-1 nodes. Without, a
// one-shot builder grows the tree's own array.
func (b *builder) fit(cfg Config, reuse bool) *Tree {
	b.prepare(cfg)
	t := &Tree{NumFeats: b.nf, featGain: make([]float64, b.nf)}
	b.t = t
	if reuse {
		b.nodes = resize(b.nodes, 2*b.n-1)[:0]
	}
	b.grow(0, b.n, 0, b.feats)
	if reuse {
		t.Nodes = slices.Clone(b.nodes)
	} else {
		t.Nodes, b.nodes = b.nodes, nil
	}
	b.t = nil
	return t
}

// prepare replaces each loaded column's values by their ranks among the
// values present (the last column's by classes), sizes the grower's scratch
// and pushes the root's feature list, all of them.
func (b *builder) prepare(cfg Config) {
	n, nf := b.n, b.nf
	b.vals = resize(b.vals, nf+1)
	b.slots = resize(b.slots, 2<<bits.Len(uint(n)))
	b.ents, b.rank = resize(b.ents, n), resize(b.rank, n)
	for c := range nf + 1 {
		b.vals[c] = b.encode(b.codes[c*n:(c+1)*n], b.i64[c*n:(c+1)*n])
	}
	b.labels, b.cls = b.vals[nf], b.codes[nf*n:(nf+1)*n]
	b.vals = b.vals[:nf]

	b.cfg = cfg.withDefaults()
	nc := len(b.labels)
	b.cbits = bits.Len(uint(nc - 1))
	b.wbits = bits.Len32(uint32(slices.Max(b.weight)))
	tableLen := 0
	for _, vals := range b.vals {
		if size := len(vals) * nc; size <= denseFactor*n {
			tableLen = max(tableLen, size)
		}
	}
	for i := range b.rows {
		b.rows[i] = int32(i)
	}
	b.ints = resize(b.ints, 3*nc)
	b.counts, b.lc, b.rc = b.ints[:nc], b.ints[nc:2*nc], b.ints[2*nc:]
	clear(b.lc)
	if cap(b.table) < tableLen {
		b.table = make([]int32, tableLen) // a reused one is all zero already
	}
	b.keys, b.runs = resize(b.keys, n), resize(b.runs, n)
	// A tree over n distinct rows is less than n deep.
	b.feats = resize(b.feats, nf*(min(b.cfg.MaxDepth, n)+2))[:0]
	for f := range nf {
		b.feats = append(b.feats, int32(f))
	}
}

// encode writes to codes the rank of each value of col among the values
// present and returns those values ascending, in place of col's first ones.
// A column holds few distinct values as a rule, so it numbers them as they
// first appear, through an open-addressed table (all zero between calls),
// and sorts only the distinct ones.
func (b *builder) encode(codes []int32, col []int64) []int64 {
	slots, mask := b.slots, uint64(len(b.slots)-1)
	ents := b.ents[:0]
	for i, v := range col {
		h := mix(uint64(v)) & mask
		for slots[h] != 0 && ents[slots[h]-1].v != v {
			h = (h + 1) & mask
		}
		if slots[h] == 0 {
			ents = append(ents, rankedEntry{v: v, e: int32(len(ents))})
			slots[h] = int32(len(ents))
		}
		codes[i] = slots[h] - 1
	}
	clear(slots)
	slices.SortFunc(ents, func(x, y rankedEntry) int { return cmp.Compare(x.v, y.v) })
	vals := col[:0]
	for r, en := range ents {
		b.rank[en.e] = int32(r)
		vals = append(vals, en.v)
	}
	for i, e := range codes {
		codes[i] = b.rank[e]
	}
	return vals
}

// grow builds the subtree of the node rows[lo:hi] at depth and returns its
// index. feats lists the features that may split the node: those that had a
// candidate threshold in every ancestor. A feature whose rows all share one
// value has none, and neither has it in any subset of them.
func (b *builder) grow(lo, hi, depth int, feats []int32) int32 {
	counts := b.counts
	clear(counts)
	n := 0
	for _, i := range b.rows[lo:hi] {
		w := int(b.weight[i])
		counts[b.cls[i]] += w
		n += w
	}
	// Majority label; the lowest class id, hence the smallest label, wins
	// ties, for determinism.
	best := 0
	for k, c := range counts {
		if c > counts[best] {
			best = k
		}
	}
	label := b.labels[best]
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Feat: -1, Label: label})

	if depth >= b.cfg.MaxDepth || n < b.cfg.MinSamples || counts[best] == n {
		return id
	}
	top := len(b.feats)
	feat, code, thresh, gain, ok := b.bestSplit(lo, hi, n, feats)
	if !ok {
		b.feats = b.feats[:top]
		return id
	}
	if gain > 0 {
		b.t.featGain[feat] += gain
	}
	live := b.feats[top:]
	mid := lo + b.partition(lo, hi, feat, code)
	l := b.grow(lo, mid, depth+1, live)
	r := b.grow(mid, hi, depth+1, live)
	b.feats = b.feats[:top]
	b.nodes[id] = Node{Feat: int32(feat), Thresh: thresh, Left: l, Right: r, Label: label}
	return id
}

// bestSplit scans the candidate thresholds of the features in feats over
// the node rows[lo:hi] — n samples, whose class counts are in b.counts — for
// the largest Gini impurity decrease. It returns the winning feature, the
// highest value code it sends left and the threshold that does so, and it
// pushes onto b.feats the features the node's children may split on. Zero-
// gain splits are admitted (the node is impure but no single split helps
// immediately — the XOR case); depth and sample bounds keep recursion
// finite.
//
// A node's impurity is priced as n·gini = n − Σc²/n over its class counts c.
// Σc² is kept as an exact integer while samples move from right to left, so
// the float64 gain of a candidate does not depend on the order the counts
// were accumulated in, nor on how many rows carried them.
func (b *builder) bestSplit(lo, hi, n int, feats []int32) (feat int, code int32, thresh int64, gain float64, ok bool) {
	parentSq := 0
	for _, c := range b.counts {
		parentSq += c * c
	}
	parentImp := float64(n) - float64(parentSq)/float64(n)
	copy(b.rc, b.counts)
	bestGain := -1.0
	for _, f32 := range feats {
		f := int(f32)
		runs := b.tally(f, lo, hi)
		// Candidates are the floored midpoints between consecutive distinct
		// values present in the node. A feature with more than MaxThresholds
		// of them is subsampled at every step-th one, counted from the lowest.
		ncand := 0
		for j := 1; j < len(runs); j++ {
			if runs[j].code != runs[j-1].code {
				ncand++
			}
		}
		if ncand == 0 {
			continue
		}
		b.feats = append(b.feats, f32)
		step := 1
		if ncand > b.cfg.MaxThresholds {
			step = ncand / b.cfg.MaxThresholds
		}
		lc, rc := b.lc, b.rc
		sqL, sqR, left := 0, parentSq, 0
		skip := 0 // candidates to pass over before the next priced one
		prev := runs[0].code
		for _, r := range runs {
			if r.code != prev {
				if skip == 0 {
					ln, rn := float64(left), float64(n-left)
					g := parentImp - (ln - float64(sqL)/ln) - (rn - float64(sqR)/rn)
					if g > bestGain {
						// lower <= thresh < upper; the half-distance is taken
						// unsigned because upper-lower can exceed MaxInt64.
						lower, upper := b.vals[f][prev], b.vals[f][r.code]
						thresh = lower + int64(uint64(upper-lower)/2)
						bestGain, feat, code, ok = g, f, prev, true
					}
					skip = step
				}
				skip--
				prev = r.code
			}
			// Move the run's c samples of class k from right to left.
			c, k := int(r.n), r.cls
			sqL += c * (2*lc[k] + c)
			lc[k] += c
			sqR -= c * (2*rc[k] - c)
			rc[k] -= c
			left += c
		}
		b.lc, b.rc = rc, lc
	}
	return feat, code, thresh, bestGain, ok
}

// tally groups the node rows[lo:hi] by (value code of feature f, class) and
// returns one run per pair present, in ascending order of code.
func (b *builder) tally(f, lo, hi int) []run {
	codes := b.codes[f*b.n : (f+1)*b.n]
	rows := b.rows[lo:hi]
	nc := len(b.labels)
	runs := b.runs[:0]
	if size := len(b.vals[f]) * nc; size <= denseFactor*len(rows) {
		table := b.table[:size]
		for _, i := range rows {
			table[int(codes[i])*nc+int(b.cls[i])] += b.weight[i]
		}
		for code := range b.vals[f] {
			for k, c := range table[code*nc : (code+1)*nc] {
				if c != 0 {
					runs = append(runs, run{code: int32(code), cls: int32(k), n: c})
				}
			}
		}
		clear(table)
		return runs
	}
	// Sort the rows by (code, class) with their weights along. Packed into one
	// word each — code, class, weight, from the top — they sort as plain
	// integers, which is what makes this path affordable.
	if bits.Len(uint(len(b.vals[f])-1))+b.cbits+b.wbits > 64 {
		return b.tallyWide(codes, rows)
	}
	// Masked, so that the compiler need not provide for shifts of 64 and over.
	wbits, pbits := uint(b.wbits)&63, uint(b.cbits+b.wbits)&63
	keys := b.keys[:len(rows)]
	for j, i := range rows {
		keys[j] = uint64(codes[i])<<pbits | uint64(b.cls[i])<<wbits | uint64(b.weight[i])
	}
	slices.Sort(keys)
	wmask, cmask := uint64(1)<<wbits-1, uint64(1)<<(pbits-wbits)-1
	last := ^uint64(0) // no pair: one takes at most 63 bits
	for _, k := range keys {
		pair, w := k>>wbits, int32(k&wmask)
		if pair == last {
			runs[len(runs)-1].n += w
		} else {
			runs = append(runs, run{code: int32(k >> pbits), cls: int32(pair & cmask), n: w})
			last = pair
		}
	}
	return runs
}

// tallyWide is the sorting tally for a feature whose codes, the classes and
// the weights do not fit one 64-bit key together, which takes millions of
// samples: it sorts a run per row with a comparator and merges equal
// neighbours in place.
func (b *builder) tallyWide(codes, rows []int32) []run {
	runs := b.runs[:len(rows)]
	for j, i := range rows {
		runs[j] = run{code: codes[i], cls: b.cls[i], n: b.weight[i]}
	}
	slices.SortFunc(runs, func(x, y run) int {
		return cmp.Or(cmp.Compare(x.code, y.code), cmp.Compare(x.cls, y.cls))
	})
	out := runs[:0]
	for _, r := range runs {
		if k := len(out) - 1; k >= 0 && out[k].code == r.code && out[k].cls == r.cls {
			out[k].n += r.n
		} else {
			out = append(out, r)
		}
	}
	return out
}

// partition reorders the node rows[lo:hi] so that the rows whose feature
// feat has a value code of at most code come first, and returns how many
// rows those are.
func (b *builder) partition(lo, hi, feat int, code int32) int {
	codes := b.codes[feat*b.n : (feat+1)*b.n]
	rows := b.rows[lo:hi]
	spill := b.spill[:len(rows)]
	l, r := 0, 0
	for _, i := range rows {
		if codes[i] <= code {
			rows[l] = i
			l++
		} else {
			spill[r] = i
			r++
		}
	}
	copy(rows[l:], spill[:r])
	return l
}

// Predict returns the class label for feature vector x. Vectors shorter than
// NumFeats read missing features as zero (fail-soft, matching the VM).
func (t *Tree) Predict(x []int64) int64 {
	if len(t.Nodes) == 0 {
		return 0
	}
	i := int32(0)
	for {
		n := t.Nodes[i]
		if n.Leaf() {
			return n.Label
		}
		var v int64
		if int(n.Feat) < len(x) {
			v = x[n.Feat]
		}
		if v <= n.Thresh {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Depth returns the maximum depth of the tree (root = 0; empty tree = -1).
func (t *Tree) Depth() int {
	if len(t.Nodes) == 0 {
		return -1
	}
	var walk func(i int32) int
	walk = func(i int32) int {
		n := t.Nodes[i]
		if n.Leaf() {
			return 0
		}
		l, r := walk(n.Left), walk(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// Size returns the node count.
func (t *Tree) Size() int { return len(t.Nodes) }

// Cost reports the verifier admission cost: worst-case ops per inference
// (one compare per level) and resident bytes.
func (t *Tree) Cost() (ops, bytes int64) {
	d := t.Depth()
	if d < 0 {
		d = 0
	}
	return int64(d + 1), int64(len(t.Nodes)) * 24 // Feat+Thresh+Left+Right+Label packed
}

// Importance returns the normalized Gini importance per feature (sums to 1
// when any split occurred; all zeros otherwise).
func (t *Tree) Importance() []float64 {
	out := make([]float64, t.NumFeats)
	total := 0.0
	for _, g := range t.featGain {
		total += g
	}
	if total <= 0 || math.IsNaN(total) {
		return out
	}
	for i, g := range t.featGain {
		out[i] = g / total
	}
	return out
}

// Accuracy evaluates fraction of rows of X whose prediction equals y.
func (t *Tree) Accuracy(X [][]int64, y []int64) float64 {
	if len(X) == 0 {
		return 0
	}
	hit := 0
	for i, x := range X {
		if t.Predict(x) == y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(X))
}
