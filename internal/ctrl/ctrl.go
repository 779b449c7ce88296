// Package ctrl implements the RMT control plane of §3.1: the API through
// which userland installs programs (the syscall_rmt() path of Figure 1),
// adds/removes/updates match-action entries and ML models, and the learn
// loop that retrains, gates and swaps a datapath's model.
package ctrl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rmtk/internal/core"
	"rmtk/internal/isa"
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
	// ErrBudgetExceeded is wrapped (alongside the verifier's specific
	// ErrOpsBudget/ErrMemBudget) when a model push is rejected for exceeding
	// a FLOP or memory budget. Callers that only care about "too expensive,
	// do not retry" branch on this one sentinel.
	ErrBudgetExceeded = errors.New("ctrl: model budget exceeded")
	// ErrStaticCost is wrapped when a model canary is rejected up front
	// because the candidate's ML ops exceed the rollout policy's static
	// ceiling (CanaryConfig.MaxStaticOps), before any shadow traffic is
	// spent on it.
	ErrStaticCost = errors.New("ctrl: static worst-case cost exceeds canary policy")
)

// Plane is a control-plane handle over one kernel.
type Plane struct {
	K *core.Kernel

	// version counts committed control-plane reconfigurations (transaction
	// commits and canary promotions). commitMu serializes them.
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
func New(k *core.Kernel) *Plane { return &Plane{K: k} }

// Version reports the count of committed control-plane reconfigurations.
// Transactions are staged against the version observed at Begin and refuse
// to commit over a conflicting one.
func (p *Plane) Version() uint64 { return p.version.Load() }

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

// UpdateAction atomically replaces the action of an exact-match entry —
// the runtime reconfiguration primitive (e.g. dialing a prefetch degree
// down).
func (p *Plane) UpdateAction(tableName string, key uint64, a table.Action) error {
	wa := walAction(a)
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindUpdateAction, Table: tableName, Key: key, Action: &wa}})
}

// checkModelBudgets applies the verifier's model-efficiency admission to a
// model — the one check PushModel, Txn.PushModel and PushModelCanary share. Budget rejections wrap both ErrBudgetExceeded and the
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
// wrap both ErrBudgetExceeded and the specific verifier sentinel. On a
// durable plane the model must have a codec (ErrUnsupportedModel otherwise): a model
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
