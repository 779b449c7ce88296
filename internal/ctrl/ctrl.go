// Package ctrl implements the RMT control plane of §3.1: the API through
// which userland installs programs (the syscall_rmt() path of Figure 1),
// adds/removes/updates match-action entries and ML models, and the accuracy
// monitoring loop that "relies on past prediction accuracy to detect
// workload changes and adjust the table entries" — e.g. falling back to
// conservative prefetching when accuracy drops below a threshold.
package ctrl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
	"rmtk/internal/wal"
)

// Control-plane sentinels, exported so callers can branch with errors.Is
// instead of matching message strings.
var (
	// ErrNoEntry is wrapped when a table mutation addresses an entry that
	// does not exist.
	ErrNoEntry = errors.New("ctrl: no such entry")
	// ErrEmptyTrainingSet is wrapped when a train/push pipeline is invoked
	// with no samples.
	ErrEmptyTrainingSet = errors.New("ctrl: empty training set")
	// ErrBudgetExceeded is wrapped (alongside the verifier's specific
	// ErrOpsBudget/ErrMemBudget) when a model push is rejected for exceeding
	// a FLOP or memory budget. Callers that only care about "too expensive,
	// do not retry" branch on this one sentinel.
	ErrBudgetExceeded = errors.New("ctrl: model budget exceeded")
	// ErrNoHistory is wrapped when a model rollback finds no prior version.
	ErrNoHistory = errors.New("ctrl: no prior model version")
	// ErrStaticCost is wrapped when a canary is rejected up front because
	// the candidate's verifier-proven worst-case cost (steps or ML ops)
	// exceeds the rollout policy's static ceiling, before any shadow
	// traffic is spent on it.
	ErrStaticCost = errors.New("ctrl: static worst-case cost exceeds canary policy")
)

// ModelHistoryLimit bounds the per-model version history kept for rollback.
const ModelHistoryLimit = 4

// Plane is a control-plane handle over one kernel.
type Plane struct {
	K *core.Kernel

	mu       sync.Mutex
	monitors map[int64]*AccuracyMonitor
	history  map[int64][]core.Model // prior model versions, oldest first

	// version counts committed control-plane reconfigurations (transaction
	// commits, canary promotions, rollbacks). commitMu serializes them.
	version  atomic.Uint64
	commitMu sync.Mutex

	// wal, when non-nil, makes the plane durable: every mutation is
	// appended (and fsynced) before it applies. walMu keeps log order
	// identical to apply order. crashAfter is the test-only crash point
	// between append and apply (crashPoint).
	wal        *wal.Log
	walMu      sync.Mutex
	crashAfter func(wal.Kind) bool

	// Replication state (replica.go). recordEpoch stamps every appended
	// record with the leader epoch it was logged under. pendingAbort (guarded
	// by commitMu) is the sequence of a shipped record that failed to apply
	// locally and awaits the leader's compensating abort record.
	recordEpoch  atomic.Uint64
	pendingAbort uint64
}

// New creates a control plane for k.
func New(k *core.Kernel) *Plane {
	return &Plane{
		K:        k,
		monitors: make(map[int64]*AccuracyMonitor),
		history:  make(map[int64][]core.Model),
	}
}

// Version reports the count of committed control-plane reconfigurations.
// Transactions are staged against the version observed at Begin and refuse
// to commit over a conflicting one.
func (p *Plane) Version() uint64 { return p.version.Load() }

// pushHistory records prior as model id's previous version, bounded at
// ModelHistoryLimit (oldest versions fall off).
func (p *Plane) pushHistory(id int64, prior core.Model) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := append(p.history[id], prior)
	if len(h) > ModelHistoryLimit {
		h = h[len(h)-ModelHistoryLimit:]
	}
	p.history[id] = h
}

// popHistory removes and returns model id's most recent prior version.
func (p *Plane) popHistory(id int64) (core.Model, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.history[id]
	if len(h) == 0 {
		return nil, false
	}
	prior := h[len(h)-1]
	p.history[id] = h[:len(h)-1]
	return prior, true
}

// ModelHistoryLen reports how many prior versions of model id are held for
// rollback.
func (p *Plane) ModelHistoryLen(id int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.history[id])
}

// RollbackModel restores model id's most recent prior version — the manual
// form of the rollback the canary controller performs automatically.
func (p *Plane) RollbackModel(id int64) error {
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindRollbackModel, ModelID: id}})
}

// rollbackModel swaps model id's most recent prior version back in.
func (p *Plane) rollbackModel(id int64) error {
	prior, ok := p.popHistory(id)
	if !ok {
		return fmt.Errorf("%w: model %d", ErrNoHistory, id)
	}
	if err := p.K.SwapModel(id, prior); err != nil {
		// Swap refused (e.g. injected fault): keep the version available.
		p.pushHistory(id, prior)
		return err
	}
	p.K.Metrics.Counter("ctrl.model_rollbacks").Inc()
	return nil
}

// LoadProgram verifies and installs an RMT program (the syscall path). The
// returned report carries the verifier's cost findings. On a durable plane
// the wire bytecode and resource declarations are logged; replay re-runs the
// verifier, which regenerates the admission artifacts deterministically.
func (p *Plane) LoadProgram(prog *isa.Program) (int64, *verifier.Report, error) {
	m := &mut{rec: &wal.Record{Kind: wal.KindLoadProgram}, prog: prog}
	err := p.submit(m)
	return m.id, m.report, err
}

// CreateTable registers a table on its hook.
func (p *Plane) CreateTable(name, hook string, kind table.MatchKind) (*table.Table, int64, error) {
	m := &mut{rec: &wal.Record{Kind: wal.KindCreateTable, Table: name, Hook: hook, Match: uint8(kind)}}
	err := p.submit(m)
	return m.tbl, m.id, err
}

// AddEntry inserts a match/action entry into a named table.
func (p *Plane) AddEntry(tableName string, e *table.Entry) error {
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindAddEntry, Table: tableName}, entry: e})
}

// RemoveEntry deletes an entry from a named table.
func (p *Plane) RemoveEntry(tableName string, e *table.Entry) error {
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindRemoveEntry, Table: tableName}, entry: e})
}

// UpdateAction atomically replaces the action of an exact-match entry —
// the runtime reconfiguration primitive (e.g. dialing a prefetch degree
// down).
func (p *Plane) UpdateAction(tableName string, key uint64, a table.Action) error {
	wa := walAction(a)
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindUpdateAction, Table: tableName, Key: key, Action: &wa}})
}

// checkModelBudgets applies the verifier's model-efficiency admission to a
// model — the one check PushModel, Txn.PushModel, PushModelCanary and
// TrainAndPush share. Budget rejections wrap both ErrBudgetExceeded and the
// specific verifier sentinel.
func checkModelBudgets(m core.Model, opsBudget, memBudget int64) error {
	ops, bytes := m.Cost()
	if opsBudget > 0 && ops > opsBudget {
		return fmt.Errorf("%w: %w: %d > %d", ErrBudgetExceeded, verifier.ErrOpsBudget, ops, opsBudget)
	}
	if memBudget > 0 && bytes > memBudget {
		return fmt.Errorf("%w: %w: %d > %d", ErrBudgetExceeded, verifier.ErrMemBudget, bytes, memBudget)
	}
	return nil
}

// PushModel swaps model id for a retrained replacement after re-checking it
// against the kernel's cost budgets — the verifier's model-efficiency
// admission applied to model updates, not just programs. Budget rejections
// wrap both ErrBudgetExceeded and the specific verifier sentinel. The
// replaced version is kept in the bounded rollback history. On a durable
// plane the model must have a codec (ErrUnsupportedModel otherwise): a model
// that cannot be logged cannot be recovered.
func (p *Plane) PushModel(id int64, m core.Model, opsBudget, memBudget int64) error {
	if err := checkModelBudgets(m, opsBudget, memBudget); err != nil {
		return fmt.Errorf("model %d: %w", id, err)
	}
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindPushModel, ModelID: id}, model: m})
}

// RegisterModel registers a fresh model through the plane. On an in-memory
// plane this is equivalent to K.RegisterModel; a durable plane logs the
// codec-encoded model so recovery restores it at the same id.
func (p *Plane) RegisterModel(m core.Model) (int64, error) { return p.RegisterModelOwned("", m) }

// TrainPushConfig parameterizes the offline train→quantize→push pipeline.
type TrainPushConfig struct {
	// Hidden lists hidden-layer widths. Empty selects {16}.
	Hidden []int
	// Classes is the output width. <=0 selects 2.
	Classes int
	// Train carries the SGD settings.
	Train mlp.TrainConfig
	// Quantize carries the integer-conversion settings.
	Quantize mlp.QuantizeConfig
	// OpsBudget / MemBudget gate the quantized model's admission.
	OpsBudget int64
	MemBudget int64
}

// TrainAndPush runs the paper's offline pipeline: train a float MLP in
// "userspace", quantize it, cost-check it, and register it with the kernel.
// It returns the model id, the layer matrix ids (for bytecode MatMul
// programs), and the quantized network.
func (p *Plane) TrainAndPush(X [][]float64, y []int, cfg TrainPushConfig) (modelID int64, matIDs []int64, q *mlp.QMLP, err error) {
	if len(X) == 0 {
		return 0, nil, nil, ErrEmptyTrainingSet
	}
	hidden := cfg.Hidden
	if len(hidden) == 0 {
		hidden = []int{16}
	}
	classes := cfg.Classes
	if classes <= 0 {
		classes = 2
	}
	sizes := append([]int{len(X[0])}, hidden...)
	sizes = append(sizes, classes)
	net, err := mlp.New(sizes, cfg.Train.Seed+7)
	if err != nil {
		return 0, nil, nil, err
	}
	if err := net.TrainStandardized(X, y, cfg.Train); err != nil {
		return 0, nil, nil, err
	}
	q, err = mlp.Quantize(net, X, cfg.Quantize)
	if err != nil {
		return 0, nil, nil, err
	}
	model := &core.QMLPModel{Net: q}
	if err := checkModelBudgets(model, cfg.OpsBudget, cfg.MemBudget); err != nil {
		return 0, nil, nil, err
	}
	m := &mut{rec: &wal.Record{Kind: wal.KindRegisterQMLP}, model: model}
	if err := p.submit(m); err != nil {
		return 0, nil, nil, err
	}
	return m.id, m.matIDs, q, nil
}
