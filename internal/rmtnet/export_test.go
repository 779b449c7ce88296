package rmtnet

import "rmtk/internal/ml/dt"

// Window, TreeConfig, Done and TrainEvery let the external tests check the
// training window at every retrain.
func (c *Classifier) Window() *dt.Online    { return c.samples }
func (c *Classifier) TreeConfig() dt.Config { return c.cfg.Tree }
func (c *Classifier) Done() int             { return c.done }
func (c *Classifier) TrainEvery() int       { return c.cfg.TrainEvery }
