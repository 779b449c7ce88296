package dt

import (
	"sync"
)

// Online wraps a Tree with windowed online training (§4 case study #1:
// "trains a new decision tree periodically in the background for each time
// window, while discarding the old ones").
//
// Observe feeds labelled samples into a bounded sliding window; every
// RetrainEvery observations a fresh tree is induced from the window and
// atomically swapped in. Predict always uses the latest trained tree and is
// safe for concurrent use with Observe.
type Online struct {
	cfg       Config
	window    int
	retrain   int
	trainHook func(*Tree) // optional; invoked after each retrain

	mu sync.Mutex
	// xs and ys are a ring once they reach window entries: head is then the
	// oldest sample and the next one to be overwritten.
	xs      [][]int64
	ys      []int64
	head    int
	pending int
	tree    *Tree
	trains  int
}

// OnlineConfig parameterizes an Online learner.
type OnlineConfig struct {
	// Tree is the induction configuration for each retrain.
	Tree Config
	// Window is the number of most recent samples retained. <=0 selects
	// 4096.
	Window int
	// RetrainEvery triggers training after this many new observations.
	// <=0 selects Window/4.
	RetrainEvery int
	// OnTrain, when non-nil, is called with each newly trained tree (used
	// by the control plane to re-verify and re-install models).
	OnTrain func(*Tree)
}

// NewOnline creates an online learner.
func NewOnline(cfg OnlineConfig) *Online {
	w := cfg.Window
	if w <= 0 {
		w = 4096
	}
	r := cfg.RetrainEvery
	if r <= 0 {
		r = w / 4
		if r == 0 {
			r = 1
		}
	}
	return &Online{cfg: cfg.Tree, window: w, retrain: r, trainHook: cfg.OnTrain}
}

// Observe records a labelled sample and retrains when due.
func (o *Online) Observe(x []int64, y int64) {
	row := append([]int64(nil), x...)
	o.mu.Lock()
	if len(o.xs) < o.window {
		o.xs = append(o.xs, row)
		o.ys = append(o.ys, y)
	} else {
		o.xs[o.head], o.ys[o.head] = row, y
		o.head = (o.head + 1) % o.window
	}
	o.pending++
	due := o.pending >= o.retrain
	var xs [][]int64
	var ys []int64
	if due {
		o.pending = 0
		xs, ys = o.snapshot()
	}
	o.mu.Unlock()
	if due {
		o.train(xs, ys)
	}
}

// snapshot copies the window out, oldest first. Rows are shared, not copied:
// they are never mutated once stored. The caller holds o.mu.
func (o *Online) snapshot() ([][]int64, []int64) {
	xs := make([][]int64, 0, len(o.xs))
	ys := make([]int64, 0, len(o.ys))
	xs = append(append(xs, o.xs[o.head:]...), o.xs[:o.head]...)
	ys = append(append(ys, o.ys[o.head:]...), o.ys[:o.head]...)
	return xs, ys
}

func (o *Online) train(xs [][]int64, ys []int64) {
	t, err := Train(xs, ys, o.cfg)
	if err != nil {
		return // window not yet trainable; keep the previous tree
	}
	o.mu.Lock()
	o.tree = t
	o.trains++
	o.mu.Unlock()
	if o.trainHook != nil {
		o.trainHook(t)
	}
}

// Predict returns the current tree's prediction, or def when no tree has
// been trained yet.
func (o *Online) Predict(x []int64, def int64) int64 {
	o.mu.Lock()
	t := o.tree
	o.mu.Unlock()
	if t == nil {
		return def
	}
	return t.Predict(x)
}

// Tree returns the most recently trained tree (nil before first training).
func (o *Online) Tree() *Tree {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tree
}

// Trains reports how many retrains have completed.
func (o *Online) Trains() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.trains
}

// WindowSize reports the current number of retained samples.
func (o *Online) WindowSize() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.xs)
}

// Window returns a snapshot of the retained samples, oldest first (rows are
// shared, not copied — callers must not mutate them). It lets external
// training loops (e.g. a control plane that cost-checks before pushing) reuse
// the learner's window.
func (o *Online) Window() ([][]int64, []int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.snapshot()
}
