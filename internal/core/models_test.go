package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rmtk/internal/ml/dt"
)

// The inference memo must answer exactly what the tree answers. These tests
// compare TreeModel.Predict against dt.Tree.Predict, which the memo wraps and
// never changes, over random trees and inputs of every length.

// byteSource feeds a test from a byte string (the fuzzer's or a seeded
// generator's), reading zeros once it is spent.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

// small returns a value in [-n, n].
func (s *byteSource) small(n int) int64 { return int64(s.next()%(2*n+1) - n) }

// randomTree builds a tree over feats features of at most the given depth.
// Splits may read a feature index past feats, which a vector of feats words
// reads as zero; thresholds and labels may be negative.
func randomTree(src *byteSource, feats, depth int) *dt.Tree {
	t := &dt.Tree{NumFeats: feats}
	var grow func(d int) int32
	grow = func(d int) int32 {
		at := int32(len(t.Nodes))
		if d == 0 || src.next()%4 == 0 {
			t.Nodes = append(t.Nodes, dt.Node{Feat: -1, Label: src.small(6)})
			return at
		}
		t.Nodes = append(t.Nodes, dt.Node{Feat: int32(src.next() % (feats + 2)), Thresh: src.small(3)})
		l := grow(d - 1)
		r := grow(d - 1)
		t.Nodes[at].Left, t.Nodes[at].Right = l, r
		return at
	}
	grow(depth)
	return t
}

// checkMemo predicts every input twice on m (the second call may be answered
// from the memo) and compares both answers with the bare tree's.
func checkMemo(t *testing.T, m *TreeModel, inputs [][]int64) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for _, x := range inputs {
			if got, want := m.Predict(x), m.Tree.Predict(x); got != want {
				t.Fatalf("feats %d, pass %d: Predict(%v) = %d, tree says %d", m.Feats, pass, x, got, want)
			}
		}
	}
}

// memoInputs draws n inputs: most exactly feats long from a small value
// range, so windows repeat and slots collide, the rest shorter or longer.
func memoInputs(src *byteSource, feats, n int) [][]int64 {
	var inputs [][]int64
	for i := 0; i < n; i++ {
		w := feats
		switch src.next() % 8 {
		case 0:
			w = src.next() % (feats + 1) // shorter, possibly empty
		case 1:
			w = feats + 1 + src.next()%3 // longer
		}
		x := make([]int64, w)
		for j := range x {
			x[j] = src.small(2)
		}
		inputs = append(inputs, x)
	}
	return inputs
}

// trustedMemo is a memo of the given size that has passed its trial, so it
// stays in use however rarely it hits.
func trustedMemo(feats, slots int) *treeMemo {
	memo := newTreeMemo(feats, slots)
	memo.seen.Store(memoTrial)
	return memo
}

func TestTreeMemoMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := make([]byte, 1<<16)
	for _, feats := range []int{1, 2, 8, memoMaxFeats, memoMaxFeats + 1, 24} {
		for trial := 0; trial < 20; trial++ {
			rng.Read(b)
			src := &byteSource{b: b}
			tree := randomTree(src, feats, 1+trial%10)
			inputs := memoInputs(src, feats, 300)
			checkMemo(t, NewTreeModel(tree), inputs)
			// A two-slot memo: nearly every store evicts another window.
			m := NewTreeModel(tree)
			if feats <= memoMaxFeats {
				m.memo.Store(trustedMemo(feats, 2))
			}
			checkMemo(t, m, inputs)
		}
	}
}

func TestTreeMemoEdgeTrees(t *testing.T) {
	for _, tree := range []*dt.Tree{
		{NumFeats: 3}, // no nodes: predicts 0
		{NumFeats: 3, Nodes: []dt.Node{{Feat: -1, Label: -7}}}, // one leaf
	} {
		checkMemo(t, NewTreeModel(tree), [][]int64{{1, 2, 3}, {}, {1}, {1, 2, 3, 4}, {-1, -2, -3}})
	}
	// A Feats that disagrees with the tree's (a codec-built literal): the
	// memo keys on the vector it is given, so it stays exact.
	tree := &dt.Tree{NumFeats: 2, Nodes: []dt.Node{
		{Feat: 2, Thresh: 0, Left: 1, Right: 2}, {Feat: -1, Label: 1}, {Feat: -1, Label: 2},
	}}
	checkMemo(t, &TreeModel{Tree: tree, Feats: 3}, [][]int64{{0, 0, 1}, {0, 0, 0}, {0, 0}, {0, 0, 5, 9}})
}

// TestTreeMemoIsLazy: building a model allocates no memo, and neither does a
// call the memo does not serve.
func TestTreeMemoIsLazy(t *testing.T) {
	m := NewTreeModel(&dt.Tree{NumFeats: 2, Nodes: []dt.Node{{Feat: -1, Label: 4}}})
	if m.memo.Load() != nil {
		t.Fatal("NewTreeModel allocated a memo")
	}
	m.Predict([]int64{1})
	m.Predict([]int64{1, 2, 3})
	if m.memo.Load() != nil {
		t.Fatal("a call of the wrong width allocated a memo")
	}
	m.Predict([]int64{1, 2})
	if m.memo.Load() == nil {
		t.Fatal("a memoizable call left no memo")
	}
	wide := &TreeModel{Tree: &dt.Tree{NumFeats: memoMaxFeats + 1}, Feats: memoMaxFeats + 1}
	wide.Predict(make([]int64, memoMaxFeats+1))
	if wide.memo.Load() != nil {
		t.Fatal("a model wider than memoMaxFeats allocated a memo")
	}
}

// TestTreeMemoTrial: a memo that rarely hits over its first memoTrial
// lookups is dropped and the model keeps answering from the tree; one that
// mostly hits stays.
func TestTreeMemoTrial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := make([]byte, 1<<12)
	rng.Read(b)
	tree := randomTree(&byteSource{b: b}, 4, 8)
	distinct := make([][]int64, 4*memoTrial)
	for i := range distinct {
		distinct[i] = []int64{int64(i), int64(i / 3), -int64(i), 1}
	}
	m := NewTreeModel(tree)
	for _, x := range distinct[:memoTrial-1] {
		if got, want := m.Predict(x), tree.Predict(x); got != want {
			t.Fatalf("Predict(%v) = %d, tree says %d", x, got, want)
		}
	}
	if m.memo.Load() == memoOff {
		t.Fatal("memo dropped before its trial ended")
	}
	checkMemo(t, m, distinct)
	if m.memo.Load() != memoOff {
		t.Fatal("a memo that never hit was kept")
	}
	checkMemo(t, m, distinct)

	// Four windows in turn: after the first round every lookup hits.
	m = NewTreeModel(tree)
	checkMemo(t, m, distinct[:4])
	for i := 0; i < memoTrial; i++ {
		checkMemo(t, m, distinct[:4])
	}
	if memo := m.memo.Load(); memo == memoOff || memo.seen.Load() < memoTrial {
		t.Fatalf("a memo that hit was dropped or is still on trial (%v)", memo == memoOff)
	}
}

// TestTreeMemoConcurrent drives one model from several goroutines through a
// two-slot memo, so readers race writers on the same slots all the time.
// Every answer must be the tree's; run it under -race.
func TestTreeMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := make([]byte, 1<<14)
	rng.Read(b)
	src := &byteSource{b: b}
	const feats = 4
	tree := randomTree(src, feats, 8)
	m := NewTreeModel(tree)
	m.memo.Store(trustedMemo(feats, 2))
	windows := make([][]int64, 16)
	want := make([]int64, len(windows))
	for i := range windows {
		windows[i] = []int64{src.small(2), src.small(2), src.small(2), src.small(2)}
		want[i] = tree.Predict(windows[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 20000; n++ {
				i := (n*7 + g*3) % len(windows)
				if got := m.Predict(windows[i]); got != want[i] {
					errs <- "memo answered a window with another window's prediction"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTreeMemoAllocatesNothing: after the first memoizable call, hits and
// misses allocate nothing.
func TestTreeMemoAllocatesNothing(t *testing.T) {
	src := &byteSource{b: []byte{3, 9, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}}
	m := NewTreeModel(randomTree(src, 8, 6))
	x := make([]int64, 8)
	m.Predict(x)
	n := int64(0)
	if a := testing.AllocsPerRun(1000, func() {
		x[n%8] = n % 5 // mostly misses at first, then hits
		n++
		m.Predict(x)
	}); a != 0 {
		t.Fatalf("Predict allocates %.2f per call", a)
	}
}

// FuzzTreeMemo is the differential over fuzzer-chosen trees and inputs, with
// the full-size memo and a two-slot one.
func FuzzTreeMemo(f *testing.F) {
	f.Add(uint8(4), uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(16), uint8(3), []byte{0, 0, 0, 1})
	f.Add(uint8(17), uint8(2), []byte{255, 254, 253})
	f.Fuzz(func(t *testing.T, feats, depth uint8, data []byte) {
		nf := int(feats%20) + 1
		src := &byteSource{b: data}
		tree := randomTree(src, nf, int(depth%12))
		inputs := memoInputs(src, nf, 64)
		checkMemo(t, NewTreeModel(tree), inputs)
		if nf <= memoMaxFeats {
			m := NewTreeModel(tree)
			m.memo.Store(trustedMemo(nf, 2))
			checkMemo(t, m, inputs)
		}
	})
}

// benchSink keeps the benchmarked predictions live.
var benchSink int64

// BenchmarkTreeModelPredict prices the memo against the bare tree walk on a
// trained 8-wide tree (rmtprefetch's window width, depth up to 12):
//
//   - tree_repeat and memo_hit cycle through 8 windows that sit in distinct
//     memo slots, so after the first pass every memo call is a hit;
//   - tree_distinct, memo_miss and memo_off cycle through 4096 windows, far
//     more than the memo's slots, so no lookup hits. memo_miss runs a memo
//     that has passed its trial, so every call pays for the hash, the failed
//     compare and the store on top of the walk; memo_off starts from a fresh
//     model, whose memo fails its trial and is dropped.
func BenchmarkTreeModelPredict(b *testing.B) {
	const feats = 8
	rng := rand.New(rand.NewSource(3))
	window := func() []int64 {
		x := make([]int64, feats)
		for j := range x {
			x[j] = int64(rng.Intn(7) - 3)
		}
		return x
	}
	X := make([][]int64, 4096)
	y := make([]int64, len(X))
	for i := range X {
		X[i] = window()
		y[i] = (X[i][0] + 2*X[i][1] - X[i][3] + int64(rng.Intn(2)) + 16) % 7
	}
	tree, err := dt.Train(X, y, dt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	distinct := make([][]int64, 4096)
	for i := range distinct {
		distinct[i] = window()
	}
	// repeat: 8 windows in 8 different slots of a full-size memo.
	slots := newTreeMemo(feats, memoSlots)
	used := map[*atomic.Uint64]bool{}
	var repeat [][]int64
	for len(repeat) < 8 {
		x := window()
		if s := &slots.slot(x)[0]; !used[s] {
			used[s] = true
			repeat = append(repeat, x)
		}
	}
	for _, bc := range []struct {
		name    string
		memo    bool
		trusted bool
		inputs  [][]int64
	}{
		{"tree_repeat", false, false, repeat},
		{"memo_hit", true, false, repeat},
		{"tree_distinct", false, false, distinct},
		{"memo_miss", true, true, distinct},
		{"memo_off", true, false, distinct},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewTreeModel(tree)
			if bc.trusted {
				m.memo.Store(trustedMemo(feats, memoSlots))
			}
			predict := m.Tree.Predict
			if bc.memo {
				predict = m.Predict
			}
			for _, x := range bc.inputs {
				predict(x)
			}
			b.ReportAllocs()
			b.ResetTimer()
			n := len(bc.inputs)
			for i := 0; i < b.N; i++ {
				benchSink += predict(bc.inputs[i%n])
			}
		})
	}
}
