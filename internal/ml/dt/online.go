package dt

import (
	"math/bits"
	"slices"
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
//
// The window is kept deduplicated between fits, as distinct samples with
// their weights, so a fit (Fit, or Observe's own retrain) starts from the
// distinct samples instead of the raw rows (DESIGN.md "The training window").
type Online struct {
	cfg       Config
	retrain   int
	trainHook func(*Tree) // optional; invoked after each retrain

	mu      sync.Mutex
	w       window
	pending int
	tree    *Tree
	trains  int

	// fitMu serializes fits, which share b's scratch; it is taken before mu.
	fitMu sync.Mutex
	b     builder
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
	return &Online{cfg: cfg.Tree, retrain: r, trainHook: cfg.OnTrain, w: window{cap: w, hash: sampleHash}}
}

// Observe records a labelled sample and retrains when due. A sample of another
// width than the window's others keeps the window from fitting until it
// leaves: Fit returns an error meanwhile, and the learner keeps its tree.
func (o *Online) Observe(x []int64, y int64) {
	o.mu.Lock()
	o.w.add(x, y)
	o.pending++
	due := o.pending >= o.retrain
	if due {
		o.pending = 0
	}
	o.mu.Unlock()
	if due {
		o.train()
	}
}

func (o *Online) train() {
	t, err := o.Fit()
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

// Fit grows a tree on the window's samples with the learner's induction
// configuration and returns it; the learner's own tree is left as it is. The
// tree is the one Train grows on Window's rows. Fit copies the window's
// distinct samples out under the lock Observe takes and grows the tree after
// releasing it. It fails while the window is empty or holds a sample of
// another width than its others.
func (o *Online) Fit() (*Tree, error) {
	o.fitMu.Lock()
	defer o.fitMu.Unlock()
	o.mu.Lock()
	err := o.b.load(&o.w)
	o.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return o.b.fit(o.cfg, true), nil
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
	return len(o.w.ring)
}

// Window returns a copy of the retained samples, oldest first.
func (o *Online) Window() ([][]int64, []int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := &o.w
	n, stride := len(w.ring), w.nf+1
	xs, ys := make([][]int64, n), make([]int64, n)
	flat := make([]int64, n*w.nf)
	for i := range xs {
		p := (w.head + i) % n
		if w.ring[p] < 0 {
			s := w.odd[p]
			xs[i], ys[i] = s[:len(s)-1:len(s)-1], s[len(s)-1]
			continue
		}
		s := w.sample(w.ring[p])
		xs[i] = flat[i*w.nf : (i+1)*w.nf : (i+1)*w.nf]
		copy(xs[i], s)
		ys[i] = s[stride-1]
	}
	return xs, ys
}

// window is the training window: the last cap samples, oldest first, held as
// distinct samples with the number of times each occurs. A sample is its row
// followed by its label. A window is not safe for concurrent use; Online
// guards it with its mutex.
type window struct {
	cap  int
	nf   int                         // features per sample
	hash func([]int64, int64) uint64 // sampleHash; a test substitutes one that collides

	// ring holds the samples as distinct-sample ids. Once it is full, head
	// is the oldest sample and the next one to be overwritten.
	ring []int32
	head int
	// odd holds, by ring position, the samples whose width is not nf, which
	// sit in the ring as id -1. While there are any, the window cannot fit.
	odd map[int][]int64

	// The distinct samples by id. An id whose weight is zero is free and
	// listed in free.
	samples []int64 // id*(nf+1)...: the row, then the label
	weight  []int32 // occurrences in the ring
	free    []int32
	live    int     // ids of non-zero weight
	index   []int32 // open-addressed by hash, linear probing: 1+id, 0 when empty
}

// sample returns distinct sample id: its row, then its label.
func (w *window) sample(id int32) []int64 {
	stride := w.nf + 1
	return w.samples[int(id)*stride : (int(id)+1)*stride]
}

// add appends sample (x, y) to the ring, evicting the oldest once it is full,
// in O(nf). The window takes the width of a sample that arrives when it holds
// no sample of its own width, the first one included.
func (w *window) add(x []int64, y int64) {
	if w.index == nil || (w.live == 0 && len(x) != w.nf) {
		w.reset(len(x))
	}
	id := int32(-1)
	if len(x) == w.nf {
		id = w.intern(x, y)
	}
	p := len(w.ring)
	if p < w.cap {
		w.ring = append(w.ring, id)
	} else {
		p = w.head
		old := w.ring[p]
		w.ring[p] = id
		w.head = (w.head + 1) % w.cap
		if old < 0 {
			delete(w.odd, p)
		} else {
			w.drop(old)
		}
	}
	if id < 0 {
		if w.odd == nil {
			w.odd = make(map[int][]int64)
		}
		w.odd[p] = append(slices.Clone(x), y)
	}
}

// grow doubles the room for distinct samples (to 16 at first), where append
// would grow a long slice by a quarter at a time.
func (w *window) grow() {
	n := max(16, 2*cap(w.weight))
	w.samples = append(make([]int64, 0, n*(w.nf+1)), w.samples...)
	w.weight = append(make([]int32, 0, n), w.weight...)
}

// reset empties the distinct samples, none of which is live, for samples of
// nf features.
func (w *window) reset(nf int) {
	w.nf = nf
	w.samples, w.weight, w.free = w.samples[:0], w.weight[:0], w.free[:0]
	if w.index == nil {
		w.ring = make([]int32, 0, w.cap)
		// Distinct samples never exceed cap+1 (add admits before it
		// evicts), so the index stays under half full.
		w.index = make([]int32, 2<<bits.Len(uint(w.cap)))
	}
}

// intern counts one more occurrence of (x, y) and returns its id. A hash
// only picks the slot to start probing from: whether two samples are the
// same one is decided by comparing them in full.
func (w *window) intern(x []int64, y int64) int32 {
	mask := uint64(len(w.index) - 1)
	i := w.hash(x, y) & mask
	for ; w.index[i] != 0; i = (i + 1) & mask {
		id := w.index[i] - 1
		if s := w.sample(id); s[w.nf] == y && slices.Equal(s[:w.nf], x) {
			w.weight[id]++ // the index holds only ids of non-zero weight
			return id
		}
	}
	var id int32
	if k := len(w.free) - 1; k >= 0 {
		id, w.free = w.free[k], w.free[:k]
		copy(w.sample(id), x)
		w.sample(id)[w.nf] = y
	} else {
		id = int32(len(w.weight))
		if len(w.weight) == cap(w.weight) {
			w.grow()
		}
		w.samples = append(append(w.samples, x...), y)
		w.weight = append(w.weight, 0)
	}
	w.index[i] = id + 1
	w.weight[id] = 1
	w.live++
	return id
}

// drop removes one occurrence of distinct sample id; at zero the sample
// leaves the index and its id is freed. The index deletes by backward shift:
// each later entry of the probe cluster that the hole would cut off from its
// home slot, the start of its probe sequence, moves back into the hole.
func (w *window) drop(id int32) {
	if w.weight[id]--; w.weight[id] > 0 {
		return
	}
	w.live--
	w.free = append(w.free, id)
	home := func(id int32) int {
		s := w.sample(id)
		return int(w.hash(s[:w.nf], s[w.nf]) & uint64(len(w.index)-1))
	}
	mask := len(w.index) - 1
	i := home(id)
	for w.index[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; w.index[j] != 0; j = (j + 1) & mask {
		// The entry at j can fill the hole at i unless its home lies
		// cyclically in (i, j].
		if h := home(w.index[j] - 1); (i <= j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
			w.index[i] = w.index[j]
			i = j
		}
	}
	w.index[i] = 0
}
