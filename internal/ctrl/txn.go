package ctrl

import (
	"errors"
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
	"rmtk/internal/wal"
)

// This file implements transactional reconfiguration: a multi-step control
// operation (create tables, add entries, push models, load programs) is
// staged as records against the plane version observed at Begin and applied
// atomically at Commit — either every step lands and the version advances, or
// the already-applied prefix is undone in reverse (each kind's undo sits
// beside its apply arm in mutation.go) and the kernel is back where it
// started. A half-applied reconfiguration can therefore never leave a hook
// firing against inconsistent tables (§3.1's reconfiguration loop, made
// safe).

// Transaction sentinels.
var (
	// ErrTxnDone is returned when a committed or rolled-back transaction is
	// reused.
	ErrTxnDone = errors.New("ctrl: transaction already finished")
	// ErrTxnConflict is returned by Commit when another reconfiguration
	// committed after this transaction began; nothing has been applied and
	// the caller should restage against current state.
	ErrTxnConflict = errors.New("ctrl: transaction conflict")
)

// TableRef is a handle to a table staged by Txn.CreateTable; ID and T are
// valid after a successful Commit.
type TableRef struct {
	T  *table.Table
	ID int64
}

// ProgRef is a handle to a program staged by Txn.LoadProgram; fields are
// valid after a successful Commit.
type ProgRef struct {
	ID     int64
	Report *verifier.Report
}

// Txn is a staged control-plane transaction. Staging methods record intent
// only; nothing touches the kernel until Commit. A Txn is not safe for
// concurrent use.
type Txn struct {
	p     *Plane
	base  uint64
	steps []*mut
	refs  []func() // resolve the TableRefs and ProgRefs after Commit
	err   error    // a step refused at staging, reported by Commit
	done  bool
}

// Begin opens a transaction against the current plane version.
func (p *Plane) Begin() *Txn {
	return &Txn{p: p, base: p.Version()}
}

func (t *Txn) stage(m *mut) *mut {
	t.steps = append(t.steps, m)
	return m
}

// CreateTable stages a table registration. The returned ref resolves after
// Commit; rollback unregisters the table.
func (t *Txn) CreateTable(name, hook string, kind table.MatchKind) *TableRef {
	m := t.stage(&mut{rec: &wal.Record{Kind: wal.KindCreateTable, Table: name, Hook: hook, Match: uint8(kind)}})
	ref := &TableRef{}
	t.refs = append(t.refs, func() { ref.T, ref.ID = m.tbl, m.id })
	return ref
}

// AddEntry stages an entry insertion into a table named now or staged
// earlier in this transaction; rollback deletes the entry and, on an
// exact-match table, re-inserts the row it displaced.
func (t *Txn) AddEntry(tableName string, e *table.Entry) {
	t.stage(&mut{rec: &wal.Record{Kind: wal.KindAddEntry, Table: tableName}, entry: e})
}

// UpdateAction stages an action replacement on an exact-match entry;
// rollback restores the action found at apply time.
func (t *Txn) UpdateAction(tableName string, key uint64, a table.Action) {
	wa := walAction(a)
	t.stage(&mut{rec: &wal.Record{Kind: wal.KindUpdateAction, Table: tableName, Key: key, Action: &wa}})
}

// PushModel stages a model swap after budget admission (a rejection fails
// Commit before anything applies); rollback restores the version the swap
// displaced. On a durable plane the model must have a codec; Commit reports
// the encoding failure otherwise.
func (t *Txn) PushModel(id int64, m core.Model, opsBudget, memBudget int64) {
	if err := checkModelBudgets(m, opsBudget, memBudget); err != nil && t.err == nil {
		t.err = fmt.Errorf("ctrl: txn step %d (push model %d): %w", len(t.steps), id, err)
	}
	t.stage(&mut{rec: &wal.Record{Kind: wal.KindPushModel, ModelID: id}, model: m})
}

// LoadProgram stages program admission (verify → compile → register);
// rollback uninstalls it. The returned ref resolves after Commit.
func (t *Txn) LoadProgram(prog *isa.Program) *ProgRef {
	m := t.stage(&mut{rec: &wal.Record{Kind: wal.KindLoadProgram}, prog: prog})
	ref := &ProgRef{}
	t.refs = append(t.refs, func() { ref.ID, ref.Report = m.id, m.report })
	return ref
}

// Commit applies the staged steps in order. If any step fails, every
// already-applied step is undone in reverse and the first failure is
// returned (undo failures are joined onto it); the plane version is only
// advanced on full success. A version conflict aborts before any step runs.
//
// On a durable plane Commit first appends ONE transaction record carrying
// every staged step: the framing makes the commit atomic on disk, so replay
// observes either the whole transaction or none of it — never a prefix. A
// transaction pushing a model with no codec refuses to commit durably with
// ErrNotReplayable. If the staged steps then fail to apply, a compensating
// abort record cancels the transaction for replay.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	if t.err != nil {
		return t.err
	}
	p := t.p
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if v := p.Version(); v != t.base {
		p.K.Metrics.Counter("ctrl.txn_conflicts").Inc()
		return fmt.Errorf("%w: began at version %d, now %d", ErrTxnConflict, t.base, v)
	}
	if err := p.submit(&mut{rec: &wal.Record{Kind: wal.KindTxnCommit, Bump: true}, subs: t.steps}); err != nil {
		return err
	}
	for _, resolve := range t.refs {
		resolve()
	}
	return nil
}
