package prefetch

import (
	"rmtk/internal/memsim"
	"rmtk/internal/ml/dt"
)

// ML policy parameters.
const (
	// MLHistory is the number of recent deltas used as features.
	MLHistory = 8
	// MLDepth is how many future deltas are rolled out per prediction.
	MLDepth = 12
	// MLClamp saturates observed deltas: anything at the clamp magnitude is
	// a "far jump" sentinel (metadata noise, region switches). The model
	// can condition on the sentinel but a rollout stops rather than
	// prefetch through it — the data-collection RMT program performs this
	// clamping as its action.
	MLClamp = 1 << 17
)

// MLTree configures the induction of the ML policy's decision tree.
var MLTree = dt.Config{MaxDepth: 12, MinSamples: 2, MaxThresholds: 48}

func clampDelta(d int64) int64 {
	if d > MLClamp {
		return MLClamp
	}
	if d < -MLClamp {
		return -MLClamp
	}
	return d
}

// DeltaModel is the learned next-delta predictor behind the ML policy. The
// direct implementation wraps dt.Online; the full-stack RMT variant routes
// Observe through the page_access data-collection table and Predict through
// the page_prefetch inference table of the in-kernel virtual machine.
type DeltaModel interface {
	// Observe records that history (oldest first) was followed by delta
	// next.
	Observe(history []int64, next int64)
	// Predict returns the predicted next delta after history, and whether
	// a model is ready.
	Predict(history []int64) (int64, bool)
}

// OnlineTreeModel adapts dt.Online to DeltaModel.
type OnlineTreeModel struct {
	Online *dt.Online
}

// NewOnlineTreeModel builds the default windowed integer-decision-tree
// learner used in case study #1.
func NewOnlineTreeModel() *OnlineTreeModel {
	return &OnlineTreeModel{Online: dt.NewOnline(dt.OnlineConfig{
		Tree:         MLTree,
		Window:       4096,
		RetrainEvery: 512,
	})}
}

// Observe implements DeltaModel.
func (m *OnlineTreeModel) Observe(history []int64, next int64) {
	m.Online.Observe(history, next)
}

// Predict implements DeltaModel.
func (m *OnlineTreeModel) Predict(history []int64) (int64, bool) {
	if m.Online.Tree() == nil {
		return 0, false
	}
	return m.Online.Predict(history, 0), true
}

// ML is the paper's prefetcher: an online-trained integer decision tree maps
// the last MLHistory page-access deltas to the next delta, and predictions
// are rolled out MLDepth steps to produce the prefetch set ("Our RMT
// pipeline collects page access traces for each process for online training
// and inference ... upon prefetching, another RMT table queries the ML model
// to predict the next pages to fetch", §4).
type ML struct {
	model DeltaModel
	name  string
	procs map[int64]*mlState
}

type mlState struct {
	lastPage int64
	haveLast bool
	hist     []int64 // most recent MLHistory deltas, oldest first
}

// NewML builds the policy around the given model; a nil model selects the
// default online tree.
func NewML(model DeltaModel) *ML {
	if model == nil {
		model = NewOnlineTreeModel()
	}
	return &ML{model: model, name: "rmt-ml", procs: make(map[int64]*mlState)}
}

// WithName renames the policy in reports (e.g. "rmt-ml-jit") and returns it.
func (m *ML) WithName(name string) *ML {
	m.name = name
	return m
}

// Name implements memsim.Prefetcher.
func (m *ML) Name() string { return m.name }

// OnAccess implements memsim.Prefetcher.
func (m *ML) OnAccess(pid, page int64, hit bool) []int64 {
	st, ok := m.procs[pid]
	if !ok {
		st = &mlState{}
		m.procs[pid] = st
	}
	if st.haveLast {
		delta := clampDelta(page - st.lastPage)
		if len(st.hist) == MLHistory {
			// Full history before this delta => a training sample.
			m.model.Observe(st.hist, delta)
		}
		st.hist = append(st.hist, delta)
		if len(st.hist) > MLHistory {
			st.hist = st.hist[1:]
		}
	}
	st.lastPage = page
	st.haveLast = true

	if len(st.hist) < MLHistory {
		return nil
	}
	// Roll the model forward: predict the next delta, append it to a
	// scratch history, and repeat, accumulating absolute pages.
	roll := append([]int64(nil), st.hist...)
	var pages []int64
	cur := page
	for i := 0; i < MLDepth; i++ {
		d, ready := m.model.Predict(roll)
		if !ready {
			return nil
		}
		if d == 0 {
			break // model predicts no further movement
		}
		if d >= MLClamp || d <= -MLClamp {
			break // far-jump sentinel: do not prefetch through noise
		}
		cur += d
		pages = append(pages, cur)
		roll = append(roll[1:], d)
	}
	return pages
}

var _ memsim.Prefetcher = (*ML)(nil)
