package core

import (
	"rmtk/internal/ml/conv"
	"rmtk/internal/ml/dt"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/ml/svm"
)

// Adapters that wrap the ML packages' models into the kernel's Model
// interface (predict / feature width / verifier cost). These are the units
// the control plane registers, swaps, and cost-checks.

// TreeModel wraps a static integer decision tree.
type TreeModel struct {
	Tree  *dt.Tree
	Feats int
}

// NewTreeModel adapts a trained tree.
func NewTreeModel(t *dt.Tree) *TreeModel { return &TreeModel{Tree: t, Feats: t.NumFeats} }

// Predict implements Model.
func (m *TreeModel) Predict(x []int64) int64 { return m.Tree.Predict(x) }

// NumFeatures implements Model.
func (m *TreeModel) NumFeatures() int { return m.Feats }

// Cost implements Model.
func (m *TreeModel) Cost() (int64, int64) { return m.Tree.Cost() }

var _ Model = (*TreeModel)(nil)

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
