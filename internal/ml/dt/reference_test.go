package dt

import "sort"

// refTrain is the tree builder Train used before the presorted one, kept
// verbatim as the reference of the differential tests: at every node it
// re-sorts each feature and, for every candidate threshold, recounts the
// node's labels into fresh maps. It is quadratic but obviously does what it
// says, and Train must reproduce its trees node for node. Inputs are assumed
// valid (Train's checks are not repeated) and feature spans below 2^62 (its
// midpoint wraps beyond that; see TestMidpointDoesNotOverflow).
func refTrain(X [][]int64, y []int64, cfg Config) *Tree {
	nf := len(X[0])
	t := &Tree{NumFeats: nf, featGain: make([]float64, nf)}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	b := refBuilder{X: X, y: y, cfg: cfg.withDefaults(), t: t}
	b.grow(idx, 0)
	return t
}

type refBuilder struct {
	X   [][]int64
	y   []int64
	cfg Config
	t   *Tree
}

func (b *refBuilder) classCounts(idx []int) map[int64]int {
	c := make(map[int64]int)
	for _, i := range idx {
		c[b.y[i]]++
	}
	return c
}

// refMajority returns the most frequent label (smallest label wins ties).
func refMajority(counts map[int64]int) int64 {
	var best int64
	bestN := -1
	for label, n := range counts {
		if n > bestN || (n == bestN && label < best) {
			best, bestN = label, n
		}
	}
	return best
}

// refGiniTimesN returns n times the Gini impurity of counts: n - Σc²/n.
func refGiniTimesN(counts map[int64]int, n int) float64 {
	if n == 0 {
		return 0
	}
	sq := 0.0
	for _, c := range counts {
		sq += float64(c) * float64(c)
	}
	return float64(n) - sq/float64(n)
}

func (b *refBuilder) grow(idx []int, depth int) int32 {
	counts := b.classCounts(idx)
	node := Node{Feat: -1, Label: refMajority(counts)}
	id := int32(len(b.t.Nodes))
	b.t.Nodes = append(b.t.Nodes, node)

	if depth >= b.cfg.MaxDepth || len(idx) < b.cfg.MinSamples || len(counts) <= 1 {
		return id
	}
	feat, thresh, gain, ok := b.bestSplit(idx, counts)
	if !ok {
		return id
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return id
	}
	if gain > 0 {
		b.t.featGain[feat] += gain
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.t.Nodes[id] = Node{Feat: int32(feat), Thresh: thresh, Left: l, Right: r, Label: node.Label}
	return id
}

func (b *refBuilder) bestSplit(idx []int, parentCounts map[int64]int) (feat int, thresh int64, gain float64, ok bool) {
	n := len(idx)
	parentImp := refGiniTimesN(parentCounts, n)
	bestGain := -1.0
	vals := make([]int64, 0, n)
	for f := 0; f < b.t.NumFeats; f++ {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, b.X[i][f])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		cands := make([]int64, 0, 16)
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[i-1] {
				cands = append(cands, vals[i-1]+(vals[i]-vals[i-1])/2)
			}
		}
		if len(cands) == 0 {
			continue
		}
		if len(cands) > b.cfg.MaxThresholds {
			step := len(cands) / b.cfg.MaxThresholds
			sub := make([]int64, 0, b.cfg.MaxThresholds)
			for i := 0; i < len(cands); i += step {
				sub = append(sub, cands[i])
			}
			cands = sub
		}
		for _, c := range cands {
			lc := make(map[int64]int)
			ln := 0
			for _, i := range idx {
				if b.X[i][f] <= c {
					lc[b.y[i]]++
					ln++
				}
			}
			if ln == 0 || ln == n {
				continue
			}
			rc := make(map[int64]int, len(parentCounts))
			for label, cnt := range parentCounts {
				if d := cnt - lc[label]; d > 0 {
					rc[label] = d
				}
			}
			g := parentImp - refGiniTimesN(lc, ln) - refGiniTimesN(rc, n-ln)
			if g > bestGain {
				bestGain, feat, thresh, ok = g, f, c, true
			}
		}
	}
	return feat, thresh, bestGain, ok
}
