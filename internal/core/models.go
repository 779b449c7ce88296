package core

import (
	"math/bits"
	"sync/atomic"

	"rmtk/internal/ml/conv"
	"rmtk/internal/ml/dt"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/ml/svm"
)

// Adapters that wrap the ML packages' models into the kernel's Model
// interface (predict / feature width / verifier cost). These are the units
// the control plane registers, swaps, and cost-checks.

// TreeModel wraps a static integer decision tree. Neither field may change
// once the model has predicted: a pushed model is immutable (a retrain pushes
// a new TreeModel), and its inference memo answers for this tree only.
type TreeModel struct {
	Tree  *dt.Tree
	Feats int

	// memo maps input windows this tree version has scored to its
	// predictions. Allocated by the first memoizable Predict, so building or
	// pushing a model costs nothing; see DESIGN.md, "Why the inference memo
	// is per tree version".
	memo atomic.Pointer[treeMemo]
}

// NewTreeModel adapts a trained tree.
func NewTreeModel(t *dt.Tree) *TreeModel { return &TreeModel{Tree: t, Feats: t.NumFeats} }

// Predict implements Model. A vector of exactly Feats features (Feats at most
// memoMaxFeats) is answered from the memo when this tree has scored it before
// and the slot is not mid-write; every other call walks the tree, which reads
// missing features as zero. A memo that hits less than half of its first
// memoTrial lookups is dropped, and the model walks the tree from then
// on.
func (m *TreeModel) Predict(x []int64) int64 {
	if len(x) != m.Feats || len(x) > memoMaxFeats {
		return m.Tree.Predict(x)
	}
	memo := m.memo.Load()
	if memo == nil {
		memo = newTreeMemo(len(x), memoSlots)
		if !m.memo.CompareAndSwap(nil, memo) {
			memo = m.memo.Load()
		}
	}
	if memo == memoOff {
		return m.Tree.Predict(x)
	}
	slot := memo.slot(x)
	v, hit := slot.load(x)
	if memo.seen.Load() < memoTrial && memo.judge(hit) {
		m.memo.CompareAndSwap(memo, memoOff)
	}
	if hit {
		return v
	}
	v = m.Tree.Predict(x)
	slot.store(x, v)
	return v
}

// NumFeatures implements Model.
func (m *TreeModel) NumFeatures() int { return m.Feats }

// Cost implements Model.
func (m *TreeModel) Cost() (int64, int64) { return m.Tree.Cost() }

var _ Model = (*TreeModel)(nil)

const (
	// memoMaxFeats caps the window width the inference memo keys on: a key
	// is compared word for word on every hit.
	memoMaxFeats = 16
	// memoSlots is the memo's slot count (a power of two). A Table-1
	// prefetch access rolls the tree forward up to 12 windows that mostly
	// repeat the previous access's: 128 slots answer 94–97 % of calls, within
	// 3 points of an unbounded memo.
	memoSlots = 128
	// memoTrial is how many lookups a new memo counts before it judges
	// itself. A miss costs about two tree walks and a hit under half of one
	// (BenchmarkTreeModelPredict), so a memo that hits less than half its
	// lookups costs more than it saves. Over their first 128 lookups, nine
	// in ten Table-1 prefetch trees hit 70–93 % of the time and 248 of 249
	// at least half; rmtio's trees, whose inputs rarely repeat, hit at most
	// 12 %.
	memoTrial = 128
)

// memoOff replaces a memo that failed its trial: the model walks the tree.
var memoOff = &treeMemo{}

// memoMul are odd multipliers for the memo's key hash, one per feature, so
// the window's words are mixed independently of each other.
var memoMul = [memoMaxFeats]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0xd6e8feb86659fd93,
	0xff51afd7ed558ccd, 0xc4ceb9fe1a85ec53, 0xa0761d6478bd642f, 0xe7037ed1a0b428db,
	0x8ebc6af09c88c6e3, 0x589965cc75374cc3, 0x1d8e4e27c47d124f, 0xbf58476d1ce4e5b9,
	0x94d049bb133111eb, 0x2545f4914f6cdd1d, 0x9fb21c651e98df25, 0xd1b54a32d192ed03,
}

// treeMemo is a direct-mapped cache from input window to prediction for one
// tree version. A slot is a seqlock of atomic words: [version, key...,
// value]. The version is even when the slot is stable (0: never written) and
// odd while a writer fills it. A reader that finds an odd version, a
// different key or a version that moved under it reports a miss and the
// caller walks the tree, so a racing read can only cost time, never answer
// wrong; a writer that loses the version's CAS skips its store.
type treeMemo struct {
	shift uint // 64 - log2(slots)
	words []atomic.Uint64

	// seen and hits count the first memoTrial lookups.
	seen, hits atomic.Int32
}

// newTreeMemo allocates a memo for windows of feats words; slots is a power
// of two.
func newTreeMemo(feats, slots int) *treeMemo {
	return &treeMemo{
		shift: uint(64 - bits.TrailingZeros(uint(slots))),
		words: make([]atomic.Uint64, slots*(feats+2)),
	}
}

// judge counts one trial lookup and reports whether it ended the trial with
// fewer than half the lookups hitting.
func (t *treeMemo) judge(hit bool) bool {
	if hit {
		t.hits.Add(1)
	}
	return t.seen.Add(1) == memoTrial && 2*t.hits.Load() < memoTrial
}

// memoSlot is one slot's words: version, feats key words, value.
type memoSlot []atomic.Uint64

// slot returns the slot x, a window of the memo's width, hashes to. The hash
// is a sum of independent products (no serial dependency between features)
// and a final mix; it only picks the slot — a hit compares the whole key.
func (t *treeMemo) slot(x []int64) memoSlot {
	var h uint64
	for j, v := range x {
		h += uint64(v) * memoMul[j]
	}
	h ^= h >> 32
	stride := len(x) + 2
	i := int((h*0xbf58476d1ce4e5b9)>>t.shift) * stride
	return memoSlot(t.words[i : i+stride : i+stride])
}

// load returns the slot's value if it holds key x, read consistently.
func (s memoSlot) load(x []int64) (int64, bool) {
	ver := s[0].Load()
	if ver == 0 || ver&1 != 0 {
		return 0, false
	}
	key := s[1 : len(x)+1]
	for j, v := range x {
		if key[j].Load() != uint64(v) {
			return 0, false
		}
	}
	v := s[len(x)+1].Load()
	return int64(v), s[0].Load() == ver
}

// store makes the slot hold x → v, unless another writer holds it.
func (s memoSlot) store(x []int64, v int64) {
	ver := s[0].Load()
	if ver&1 != 0 || !s[0].CompareAndSwap(ver, ver+1) {
		return
	}
	key := s[1 : len(x)+1]
	for j, w := range x {
		key[j].Store(uint64(w))
	}
	s[len(x)+1].Store(uint64(v))
	s[0].Store(ver + 2)
}

// QMLPModel wraps a quantized MLP; Predict returns the argmax class.
type QMLPModel struct {
	Net *mlp.QMLP
}

// Predict implements Model.
func (m *QMLPModel) Predict(x []int64) int64 { return int64(m.Net.Predict(x)) }

// NumFeatures implements Model.
func (m *QMLPModel) NumFeatures() int { return m.Net.Sizes[0] }

// Cost implements Model.
func (m *QMLPModel) Cost() (int64, int64) { return m.Net.Cost() }

var _ Model = (*QMLPModel)(nil)

// SVMModel wraps an integer linear SVM.
type SVMModel struct {
	Machine *svm.SVM
}

// Predict implements Model.
func (m *SVMModel) Predict(x []int64) int64 { return int64(m.Machine.Predict(x)) }

// NumFeatures implements Model.
func (m *SVMModel) NumFeatures() int { return m.Machine.NumFeats }

// Cost implements Model.
func (m *SVMModel) Cost() (int64, int64) { return m.Machine.Cost() }

var _ Model = (*SVMModel)(nil)

// FuncModel adapts an arbitrary prediction function (tests, composites).
type FuncModel struct {
	Fn    func(x []int64) int64
	Feats int
	Ops   int64
	Size  int64
}

// Predict implements Model.
func (m *FuncModel) Predict(x []int64) int64 { return m.Fn(x) }

// NumFeatures implements Model.
func (m *FuncModel) NumFeatures() int { return m.Feats }

// Cost implements Model.
func (m *FuncModel) Cost() (int64, int64) { return m.Ops, m.Size }

var _ Model = (*FuncModel)(nil)

// RegisterQMLP registers a quantized MLP's layers as matrices (for the
// bytecode OpMatMul path) and the whole network as a Model (for the
// OpMLInfer path), returning the matrix ids (layer order) and the model id.
func (k *Kernel) RegisterQMLP(q *mlp.QMLP) (matIDs []int64, modelID int64, err error) {
	for _, m := range q.Mats() {
		id, rerr := k.RegisterMatrix(&Matrix{In: m.In, Out: m.Out, W: m.W, B: m.B})
		if rerr != nil {
			return nil, 0, rerr
		}
		matIDs = append(matIDs, id)
	}
	modelID = k.RegisterModel(&QMLPModel{Net: q})
	return matIDs, modelID, nil
}

// CNNModel wraps a quantized convolutional network ("action_cnn", §3.2);
// Predict consumes a flat CHW feature vector and returns the argmax channel.
type CNNModel struct {
	Net *conv.CNN
}

// Predict implements Model.
func (m *CNNModel) Predict(x []int64) int64 { return m.Net.Predict(x) }

// NumFeatures implements Model.
func (m *CNNModel) NumFeatures() int { return m.Net.NumFeatures() }

// Cost implements Model: the verifier's height×width×channels MAC count.
func (m *CNNModel) Cost() (int64, int64) { return m.Net.Cost() }

var _ Model = (*CNNModel)(nil)
