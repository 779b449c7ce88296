// Package feature implements feature-importance ranking and selection — the
// machinery behind the paper's "lean monitoring" benefit (§2.1 #1): "a
// feature selection process using feature importance ranking may allow the
// kernel to forego the monitoring of events that contribute little useful
// information". Case study #2 uses exactly this to cut the scheduler's
// monitored features from 15 to 2.
package feature

import (
	"fmt"
	"math/rand"
	"sort"
)

// Classifier is any integer-feature model that can be scored; both dt.Tree,
// mlp.QMLP (via adapters) and svm.SVM satisfy it trivially.
type Classifier interface {
	// Predict returns the class for integer feature vector x.
	Predict(x []int64) int64
}

// Func adapts a plain prediction function to Classifier.
type Func func(x []int64) int64

// Predict implements Classifier.
func (f Func) Predict(x []int64) int64 { return f(x) }

// Importance pairs a feature index with its importance score.
type Importance struct {
	Feature int
	Score   float64
}

// Permutation computes permutation importance: for each feature column,
// shuffle it across the evaluation set and measure the accuracy drop. Bigger
// drops mean the model relies on the feature more. Results are sorted by
// descending score.
func Permutation(m Classifier, X [][]int64, y []int64, seed int64) ([]Importance, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("feature: bad evaluation set: %d rows, %d labels", len(X), len(y))
	}
	nf := len(X[0])
	base := accuracy(m, X, y)
	rng := rand.New(rand.NewSource(seed))

	// Work on a mutable copy so the caller's rows are untouched.
	work := make([][]int64, len(X))
	for i, row := range X {
		work[i] = append([]int64(nil), row...)
	}

	out := make([]Importance, 0, nf)
	perm := make([]int, len(X))
	col := make([]int64, len(X))
	for f := 0; f < nf; f++ {
		for i := range work {
			col[i] = work[i][f]
		}
		copy(perm, rng.Perm(len(X)))
		for i := range work {
			work[i][f] = col[perm[i]]
		}
		drop := base - accuracy(m, work, y)
		for i := range work {
			work[i][f] = col[i]
		}
		out = append(out, Importance{Feature: f, Score: drop})
	}
	sortImportances(out)
	return out, nil
}

func sortImportances(imp []Importance) {
	sort.SliceStable(imp, func(i, j int) bool {
		if imp[i].Score != imp[j].Score {
			return imp[i].Score > imp[j].Score
		}
		return imp[i].Feature < imp[j].Feature
	})
}

// TopK returns the indices of the k highest-ranked features, in ascending
// index order (stable column selection).
func TopK(imp []Importance, k int) []int {
	if k > len(imp) {
		k = len(imp)
	}
	idx := make([]int, 0, k)
	for _, im := range imp[:k] {
		idx = append(idx, im.Feature)
	}
	sort.Ints(idx)
	return idx
}

// Select projects each row of X onto the chosen feature columns — the "lean"
// dataset whose monitors the kernel keeps; everything else can stop being
// collected.
func Select(X [][]int64, cols []int) [][]int64 {
	out := make([][]int64, len(X))
	for i, row := range X {
		sel := make([]int64, len(cols))
		for j, c := range cols {
			if c >= 0 && c < len(row) {
				sel[j] = row[c]
			}
		}
		out[i] = sel
	}
	return out
}

// SelectRow projects a single row (for online inference with the lean
// model).
func SelectRow(row []int64, cols []int) []int64 {
	sel := make([]int64, len(cols))
	for j, c := range cols {
		if c >= 0 && c < len(row) {
			sel[j] = row[c]
		}
	}
	return sel
}

func accuracy(m Classifier, X [][]int64, y []int64) float64 {
	hit := 0
	for i, x := range X {
		if m.Predict(x) == y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(X))
}
