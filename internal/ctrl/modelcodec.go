package ctrl

import (
	"encoding/json"
	"errors"
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/ml/dt"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/ml/quant"
	"rmtk/internal/wal"
)

// Model codecs: the durable control plane persists models by value, so
// every pushed or registered model must round-trip through a codec. The
// two learned-model families the substrates deploy (quantized MLPs and
// decision trees) both serialize; ad-hoc FuncModels (closures) cannot, and a
// durable plane rejects them up front — better a loud install failure than a
// log that silently cannot be replayed.

// ErrUnsupportedModel is wrapped when a model has no durable codec. Only
// durable planes (ctrl.Open / ctrl.Recover) hit it; in-memory planes accept
// any core.Model.
var ErrUnsupportedModel = errors.New("ctrl: model has no durable codec")

// qmlpSnap is the "qmlp" codec payload.
type qmlpSnap struct {
	Sizes      []int           `json:"sizes"`
	Wq         [][]int64       `json:"wq"`
	Bq         [][]int64       `json:"bq"`
	Req        []quant.Requant `json:"req"`
	InScale    float64         `json:"in_scale"`
	WeightBits int             `json:"weight_bits"`
	ActLimit   int64           `json:"act_limit"`
}

// treeSnap is the "tree" codec payload.
type treeSnap struct {
	Nodes    []dt.Node `json:"nodes"`
	NumFeats int       `json:"num_feats"`
	Feats    int       `json:"feats"`
}

// encodeModel snapshots a model into its codec-tagged durable form.
func encodeModel(m core.Model) (*wal.Model, error) {
	var (
		codec   string
		payload any
	)
	switch mm := m.(type) {
	case *core.QMLPModel:
		codec = "qmlp"
		payload = qmlpSnap{
			Sizes: mm.Net.Sizes, Wq: mm.Net.Wq, Bq: mm.Net.Bq, Req: mm.Net.Req,
			InScale: mm.Net.InScale, WeightBits: mm.Net.WeightBits, ActLimit: mm.Net.ActLimit(),
		}
	case *core.TreeModel:
		codec = "tree"
		payload = treeSnap{Nodes: mm.Tree.Nodes, NumFeats: mm.Tree.NumFeats, Feats: mm.Feats}
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedModel, m)
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return &wal.Model{Codec: codec, Data: data}, nil
}

// decodeModel reconstructs a model from its durable form.
func decodeModel(s *wal.Model) (core.Model, error) {
	switch s.Codec {
	case "qmlp":
		var snap qmlpSnap
		if err := json.Unmarshal(s.Data, &snap); err != nil {
			return nil, fmt.Errorf("ctrl: qmlp codec: %w", err)
		}
		if len(snap.Sizes) < 2 || len(snap.Wq) != len(snap.Sizes)-1 ||
			len(snap.Bq) != len(snap.Wq) || len(snap.Req) != len(snap.Wq) {
			return nil, fmt.Errorf("%w: qmlp payload shape mismatch", wal.ErrCorruptRecord)
		}
		q := &mlp.QMLP{
			Sizes: snap.Sizes, Wq: snap.Wq, Bq: snap.Bq, Req: snap.Req,
			InScale: snap.InScale, WeightBits: snap.WeightBits,
		}
		q.SetActLimit(snap.ActLimit)
		return &core.QMLPModel{Net: q}, nil
	case "tree":
		var snap treeSnap
		if err := json.Unmarshal(s.Data, &snap); err != nil {
			return nil, fmt.Errorf("ctrl: tree codec: %w", err)
		}
		t := &dt.Tree{Nodes: snap.Nodes, NumFeats: snap.NumFeats}
		feats := snap.Feats
		if feats == 0 {
			feats = snap.NumFeats
		}
		return &core.TreeModel{Tree: t, Feats: feats}, nil
	default:
		return nil, fmt.Errorf("%w: unknown codec %q", ErrUnsupportedModel, s.Codec)
	}
}
