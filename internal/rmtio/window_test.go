package rmtio_test

import (
	"slices"
	"testing"

	"rmtk/internal/blksim"
	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/experiments"
	"rmtk/internal/ml/dt"
	"rmtk/internal/rmtio"
)

// checkedRouter checks, after every completion that retrained, that the tree
// the router's window fits is the tree dt.Train grows on the window's rows.
type checkedRouter struct {
	*rmtio.Router
	t    *testing.T
	fits int
}

func (c *checkedRouter) OnComplete(dev int64, slow bool, latencyNs int64) {
	c.Router.OnComplete(dev, slow, latencyNs)
	if c.Observed()%c.TrainEvery() != 0 || c.Window().WindowSize() < 32 {
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
		c.t.Fatalf("completion %d: the window's tree (%d nodes) is not dt.Train's (%d nodes)",
			c.Observed(), got.Size(), want.Size())
	}
	c.fits++
}

// TestIOWindowMatchesTrain runs the io experiment's learned arm.
func TestIOWindowMatchesTrain(t *testing.T) {
	const seed = 1
	cfg := blksim.Config{Replicas: 3, Device: experiments.IODeviceConfig(), Seed: seed, HedgeAfterNs: 300_000}
	reqs := blksim.GenRequests(30_000, 300_000, seed+1)
	k := core.NewKernel(core.Config{})
	r, err := rmtio.New(k, ctrl.New(k), rmtio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := &checkedRouter{Router: r, t: t}
	blksim.Run(cfg, c, reqs)
	if c.fits < 100 {
		t.Fatalf("%d retrains checked", c.fits)
	}
}
