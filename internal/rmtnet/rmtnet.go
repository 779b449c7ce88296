// Package rmtnet wires the network-RX subsystem through the RMT stack: the
// net/rx_flow_classify decision point runs a verified program over each new
// flow's first-packet features and predicts whether the flow is an elephant,
// isolating it on the bulk queue from its first byte. Labels arrive at flow
// completion (total bytes vs. the elephant cutoff), and a ctrl.Learner
// periodically retrains an integer decision tree and pushes it through the
// control plane — the collect → train → cost-check → swap loop rmtprefetch
// and rmtio share, applied to the domain RMT came from.
package rmtnet

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/isa"
	"rmtk/internal/ml/dt"
	"rmtk/internal/netsim"
	"rmtk/internal/table"
)

// ClassifyTable is the table name at net/rx_flow_classify.
const ClassifyTable = "flow_class_tab"

const (
	// elephantCutoff is the flow size (bytes) labelling a flow as an
	// elephant.
	elephantCutoff = 64_000
	// trainEvery retrains after this many completed flows.
	trainEvery = 64
)

// treeConfig configures induction.
var treeConfig = dt.Config{MaxDepth: 6, MinSamples: 2, MaxThresholds: 32}

// Classifier is the kernel-routed learned flow classifier; it implements
// netsim.Classifier.
type Classifier struct {
	K     *core.Kernel
	Plane *ctrl.Plane

	modelID int64
	vecID   int64

	samples *dt.Online // the training window; pushes go through learn
	learn   *ctrl.Learner
	done    int
}

// New installs the classify table, prediction program and placeholder model.
func New(k *core.Kernel, plane *ctrl.Plane) (*Classifier, error) {
	c := &Classifier{
		K: k, Plane: plane,
		samples: dt.NewOnline(dt.OnlineConfig{Tree: treeConfig, Window: 2048, RetrainEvery: 1 << 30}),
	}
	c.modelID = k.RegisterModel(&core.FuncModel{
		Fn:    func([]int64) int64 { return 0 }, // mice until trained
		Feats: netsim.NumFeatures,
		Ops:   1,
		Size:  8,
	})
	c.vecID = k.RegisterVec(make([]int64, netsim.NumFeatures))
	c.learn = plane.NewLearner(netsim.HookClassify, c.modelID, nil, nil)
	if _, _, err := plane.CreateTable(ClassifyTable, netsim.HookClassify, table.MatchTernary); err != nil {
		return nil, err
	}
	prog := &isa.Program{
		Name: "flow_classify",
		Hook: netsim.HookClassify,
		Insns: isa.MustAssemble(fmt.Sprintf(`
        ; first-packet features staged in the pool vector
        vecld   v0, %d
        mlinfer r0, v0, %d      ; 1 = elephant
        exit`, c.vecID, c.modelID)),
		Models: []int64{c.modelID},
		Vecs:   []int64{c.vecID},
	}
	progID, _, err := plane.LoadProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("rmtnet: admission: %w", err)
	}
	t, _, err := k.TableByName(ClassifyTable)
	if err != nil {
		return nil, err
	}
	if err := t.Insert(&table.Entry{
		Mask:   0, // every flow
		Action: table.Action{Kind: table.ActionProgram, ProgID: progID},
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// Name implements netsim.Classifier.
func (c *Classifier) Name() string { return "rmt-learned" }

// Classify implements netsim.Classifier: fire the datapath on the flow's
// first-packet features.
func (c *Classifier) Classify(info *netsim.FlowInfo) int {
	if err := c.K.SetVec(c.vecID, info.Features()); err != nil {
		return netsim.QueueLatency
	}
	res := c.K.Fire(netsim.HookClassify, info.FlowID, 0, 0)
	if res.Verdict == 1 {
		return netsim.QueueBulk
	}
	return netsim.QueueLatency
}

// OnFlowBytes implements netsim.Classifier: the learned policy does not
// reclassify mid-flow (first-packet isolation is the point).
func (c *Classifier) OnFlowBytes(int64, int64) int { return -1 }

// OnFlowDone implements netsim.Classifier: label and periodically retrain.
func (c *Classifier) OnFlowDone(info *netsim.FlowInfo, total int64) {
	label := int64(0)
	if total >= elephantCutoff {
		label = 1
	}
	c.samples.Observe(info.Features(), label)
	c.done++
	if c.done%trainEvery == 0 {
		if c.samples.WindowSize() >= 16 {
			_ = c.learn.Train(c.samples)
		}
	}
}

// Trains reports completed model pushes.
func (c *Classifier) Trains() int { return c.learn.Trains() }

var _ netsim.Classifier = (*Classifier)(nil)
