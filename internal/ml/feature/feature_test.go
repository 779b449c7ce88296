package feature

import (
	"math/rand"
	"testing"
)

// model: prediction depends only on features 1 and 3.
func depModel(x []int64) int64 {
	if x[1]+x[3] > 100 {
		return 1
	}
	return 0
}

func depData(rng *rand.Rand, n, nf int) ([][]int64, []int64) {
	X := make([][]int64, n)
	y := make([]int64, n)
	for i := range X {
		row := make([]int64, nf)
		for f := range row {
			row[f] = rng.Int63n(100)
		}
		X[i] = row
		y[i] = depModel(row)
	}
	return X, y
}

func TestPermutationFindsRelevantFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := depData(rng, 1000, 6)
	imp, err := Permutation(Func(depModel), X, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	top := TopK(imp, 2)
	if len(top) != 2 || top[0] != 1 || top[1] != 3 {
		t.Fatalf("top-2 = %v, want [1 3] (ranking: %v)", top, imp)
	}
	// Irrelevant features score ~0.
	for _, im := range imp {
		if im.Feature != 1 && im.Feature != 3 && im.Score > 0.02 {
			t.Fatalf("irrelevant feature %d scored %.3f", im.Feature, im.Score)
		}
	}
}

func TestPermutationPreservesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := depData(rng, 100, 4)
	orig := make([][]int64, len(X))
	for i, r := range X {
		orig[i] = append([]int64(nil), r...)
	}
	if _, err := Permutation(Func(depModel), X, y, 3); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		for j := range X[i] {
			if X[i][j] != orig[i][j] {
				t.Fatal("Permutation mutated the caller's rows")
			}
		}
	}
}

func TestPermutationValidation(t *testing.T) {
	if _, err := Permutation(Func(depModel), nil, nil, 1); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestTopKStableAndSorted(t *testing.T) {
	imp := []Importance{{Feature: 5, Score: 1}, {Feature: 2, Score: 1}, {Feature: 9, Score: 0.5}}
	sortImportances(imp)
	// Equal scores break ties by feature index.
	if imp[0].Feature != 2 || imp[1].Feature != 5 {
		t.Fatalf("tie-break wrong: %v", imp)
	}
	top := TopK(imp, 2)
	if len(top) != 2 || top[0] != 2 || top[1] != 5 {
		t.Fatalf("topk = %v", top)
	}
	if got := TopK(imp, 99); len(got) != 3 {
		t.Fatalf("overlong topk = %v", got)
	}
}

func TestSelect(t *testing.T) {
	X := [][]int64{{10, 20, 30}, {40, 50, 60}}
	sel := Select(X, []int{2, 0})
	if sel[0][0] != 30 || sel[0][1] != 10 || sel[1][0] != 60 {
		t.Fatalf("select = %v", sel)
	}
	// Out-of-range columns read zero.
	sel2 := Select(X, []int{5})
	if sel2[0][0] != 0 {
		t.Fatalf("oob select = %v", sel2)
	}
	row := SelectRow([]int64{7, 8, 9}, []int{1, 9})
	if row[0] != 8 || row[1] != 0 {
		t.Fatalf("selectrow = %v", row)
	}
}
