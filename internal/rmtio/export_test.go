package rmtio

import "rmtk/internal/ml/dt"

// TrainEvery, TreeConfig, Window and Observed let the external tests check
// the training window at every retrain.
const TrainEvery = trainEvery

var TreeConfig = treeConfig

func (r *Router) Window() *dt.Online { return r.samples }
func (r *Router) Observed() int      { return r.observed }
