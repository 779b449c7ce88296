package rmtio

import "rmtk/internal/ml/dt"

// Window, TreeConfig and Observed let the external tests check the training
// window at every retrain.
func (r *Router) Window() *dt.Online    { return r.samples }
func (r *Router) TreeConfig() dt.Config { return r.cfg.Tree }
func (r *Router) Observed() int         { return r.observed }
func (r *Router) TrainEvery() int       { return r.cfg.TrainEvery }
