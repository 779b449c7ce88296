package rmtnet_test

import (
	"slices"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/ml/dt"
	"rmtk/internal/netsim"
	"rmtk/internal/rmtnet"
)

// checkedClassifier checks, after every finished flow that retrained, that
// the tree the classifier's window fits is the tree dt.Train grows on the
// window's rows.
type checkedClassifier struct {
	*rmtnet.Classifier
	t    *testing.T
	fits int
}

func (c *checkedClassifier) OnFlowDone(info *netsim.FlowInfo, total int64) {
	c.Classifier.OnFlowDone(info, total)
	if c.Done()%c.TrainEvery() != 0 || c.Window().WindowSize() < 16 {
		return
	}
	got, err := c.Window().Fit()
	if err != nil {
		c.t.Fatal(err)
	}
	X, y := c.Window().Window()
	want, err := dt.Train(X, y, c.TreeConfig())
	if err != nil {
		c.t.Fatal(err)
	}
	if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Importance(), want.Importance()) {
		c.t.Fatalf("flow %d: the window's tree (%d nodes) is not dt.Train's (%d nodes)",
			c.Done(), got.Size(), want.Size())
	}
	c.fits++
}

// TestNetWindowMatchesTrain runs the net experiment's learned arm: a warm-up
// day, then the measured one.
func TestNetWindowMatchesTrain(t *testing.T) {
	const seed = 1
	cfg := netsim.Config{LatencyBytesPerUs: 1000, BulkBytesPerUs: 8000}
	k := core.NewKernel(core.Config{})
	cls, err := rmtnet.New(k, ctrl.New(k), rmtnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := &checkedClassifier{Classifier: cls, t: t}
	netsim.Run(cfg, c, netsim.GenWorkload(netsim.WorkloadConfig{Seed: seed + 7, Flows: 800}))
	netsim.Run(cfg, c, netsim.GenWorkload(netsim.WorkloadConfig{Seed: seed, Flows: 1600}))
	if c.fits < 30 {
		t.Fatalf("%d retrains checked", c.fits)
	}
}
