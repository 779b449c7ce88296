package rmtnet

import "rmtk/internal/ml/dt"

// TrainEvery, TreeConfig, Window and Done let the external tests check the
// training window at every retrain.
const TrainEvery = trainEvery

var TreeConfig = treeConfig

func (c *Classifier) Window() *dt.Online { return c.samples }
func (c *Classifier) Done() int          { return c.done }
