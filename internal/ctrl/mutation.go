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

// This file is the one path every control-plane mutation takes. A mutator
// builds a mut — the wal.Record that logs the change, plus the live values it
// was built from — and submits it: submit appends the record when a log is
// attached, then apply changes the kernel. Recover's replay and checkpoint
// restore, ApplyReplicated and Txn.Commit call the same apply, so a record
// means one thing on every path, and "replay ≡ live state" holds because the
// live plane runs the code replay runs.

// mut is one control-plane mutation. rec is its durable form; entry, prog and
// model are the live values it was built from (decoded from rec on replay).
// Their encodings are filled into rec only when a log is attached, so an
// in-memory plane encodes nothing and accepts models that have no codec.
type mut struct {
	rec   *wal.Record
	entry *table.Entry
	prog  *isa.Program
	model core.Model
	// subs are a transaction's steps.
	subs []*mut
	// do, when set, is what applying m means instead of rec: nothing at all
	// for an engine incident the sentinel already applied before logging it.
	do func() (undo func() error, err error)

	// What apply produced, for the caller.
	id     int64            // the table, program or model created
	tbl    *table.Table     // the table created
	report *verifier.Report // the admitted program's report
}

// String names m in transaction errors.
func (m *mut) String() string { return m.rec.Kind.String() }

// encode fills the record's payload in from the live values.
func (m *mut) encode() error {
	if m.entry != nil {
		e := walEntry(m.entry)
		m.rec.Entry = &e
	}
	if m.prog != nil {
		m.rec.Program = walProgram(m.prog)
	}
	if m.model != nil {
		enc, err := encodeModel(m.model)
		if err != nil {
			return err
		}
		m.rec.Model = enc
	}
	for i, s := range m.subs {
		if err := s.encode(); err != nil {
			return fmt.Errorf("%w: txn step %d (%s): %w", ErrNotReplayable, i, s, err)
		}
		m.rec.Sub = append(m.rec.Sub, s.rec)
	}
	return nil
}

// decodeMut rebuilds the live values of a logged or checkpointed record.
func decodeMut(rec *wal.Record) (*mut, error) {
	m := &mut{rec: rec}
	var err error
	if rec.Entry != nil {
		m.entry = ctrlEntry(rec.Entry)
	}
	if rec.Program != nil {
		if m.prog, err = ctrlProgram(rec.Program); err != nil {
			return nil, err
		}
	}
	if rec.Model != nil {
		if m.model, err = decodeModel(rec.Model); err != nil {
			return nil, err
		}
	}
	for _, sub := range rec.Sub {
		s, err := decodeMut(sub)
		if err != nil {
			return nil, err
		}
		m.subs = append(m.subs, s)
	}
	return m, nil
}

// submit is the write-ahead discipline of every live mutation: with a log
// attached, encode the record, append it durably, then apply; with none, just
// apply. walMu keeps log order identical to apply order. An apply failure
// appends a compensating abort record so replay skips the mutation
// (append-then-fail is the one case where the log runs ahead of memory).
func (p *Plane) submit(m *mut) error {
	if p.wal == nil {
		_, err := p.apply(m)
		return err
	}
	if err := m.encode(); err != nil {
		return err
	}
	p.walMu.Lock()
	defer p.walMu.Unlock()
	p.stampEpoch(m.rec)
	seq, err := p.wal.Append(m.rec)
	if err != nil {
		return fmt.Errorf("ctrl: wal append: %w", err)
	}
	if err := p.crashPoint(m.rec.Kind); err != nil {
		return err
	}
	if _, err := p.apply(m); err != nil {
		abort := &wal.Record{Kind: wal.KindAbort, Ref: seq}
		p.stampEpoch(abort)
		if _, aerr := p.wal.Append(abort); aerr != nil {
			err = errors.Join(err, fmt.Errorf("ctrl: wal abort append: %w", aerr))
		}
		return err
	}
	return nil
}

// crashPoint runs the test-only crash hook that sits between a record's
// append and its apply: true simulates a crash in that window.
func (p *Plane) crashPoint(kind wal.Kind) error {
	if p.crashAfter != nil && p.crashAfter(kind) {
		return errSimulatedCrash
	}
	return nil
}

// replay applies a logged, shipped or checkpointed record.
func (p *Plane) replay(rec *wal.Record) error {
	m, err := decodeMut(rec)
	if err != nil {
		return err
	}
	_, err = p.apply(m)
	return err
}

// apply is the one dispatch from a record to the kernel. It leaves the ids a
// caller needs in m, advances the plane version when the record says Bump,
// and returns the undo a transaction rolls the change back with — nil for
// the kinds no transaction record may carry (see wal's validate). A record
// with an explicit ID (a checkpoint's) restores its resource at that id.
func (p *Plane) apply(m *mut) (undo func() error, err error) {
	if m.do != nil {
		return m.do()
	}
	k, rec := p.K, m.rec
	switch rec.Kind {
	case wal.KindCreateTable:
		t := table.New(rec.Table, rec.Hook, table.MatchKind(rec.Match))
		if m.id, err = k.CreateTableAt(rec.ID, t); err != nil {
			return nil, err
		}
		for i := range rec.Rows {
			if err := t.Insert(ctrlEntry(&rec.Rows[i])); err != nil {
				return nil, err
			}
		}
		if rec.Action != nil {
			a := ctrlAction(*rec.Action)
			t.SetDefault(&a)
		}
		m.tbl = t
		id := m.id
		undo = func() error { return k.RemoveTable(id) }
	case wal.KindAddEntry:
		t, _, err := k.TableByName(rec.Table)
		if err != nil {
			return nil, err
		}
		// On an exact table an insert over a key replaces that row; undo puts
		// the displaced row itself back, the same *Entry, revived.
		e, displaced := m.entry, t.Probe(m.entry.Key)
		if err := t.Insert(e); err != nil {
			return nil, err
		}
		undo = func() error {
			if !t.Delete(e) {
				return fmt.Errorf("%w in %q", ErrNoEntry, rec.Table)
			}
			if displaced != nil {
				return t.Insert(displaced)
			}
			return nil
		}
	case wal.KindRemoveEntry:
		t, _, err := k.TableByName(rec.Table)
		if err != nil {
			return nil, err
		}
		if !t.Delete(m.entry) {
			return nil, fmt.Errorf("%w in %q", ErrNoEntry, rec.Table)
		}
	case wal.KindUpdateAction:
		t, _, err := k.TableByName(rec.Table)
		if err != nil {
			return nil, err
		}
		prior := t.Probe(rec.Key)
		if prior == nil || !t.UpdateAction(rec.Key, ctrlAction(*rec.Action)) {
			return nil, fmt.Errorf("%w with key %d in %q", ErrNoEntry, rec.Key, rec.Table)
		}
		undo = func() error {
			if !t.UpdateAction(rec.Key, prior.Action) {
				return fmt.Errorf("%w with key %d in %q", ErrNoEntry, rec.Key, rec.Table)
			}
			return nil
		}
	case wal.KindLoadProgram:
		if m.id, m.report, err = k.InstallProgramAt(rec.ID, m.prog); err != nil {
			return nil, err
		}
		id := m.id
		undo = func() error { return k.RemoveProgram(id) }
	case wal.KindRegisterModel:
		if m.id, err = k.RegisterModelOwnedAt(rec.ID, rec.Tenant, m.model); err != nil {
			return nil, err
		}
	case wal.KindRegisterMatrix:
		w := rec.Matrix
		if m.id, err = k.RegisterMatrixAt(rec.ID, &core.Matrix{In: w.In, Out: w.Out, W: w.W, B: w.B}); err != nil {
			return nil, err
		}
	case wal.KindPushModel:
		prior, err := k.Model(rec.ModelID)
		if err != nil {
			return nil, err
		}
		if err := k.SwapModel(rec.ModelID, m.model); err != nil {
			return nil, err
		}
		undo = func() error { return k.SwapModel(rec.ModelID, prior) }
	case wal.KindTxnCommit:
		if err := p.applyTxn(m.subs); err != nil {
			return nil, err
		}
	case wal.KindRegisterTenant:
		if err := k.RegisterTenant(rec.Tenant, ctrlQuota(rec.Quota)); err != nil {
			return nil, err
		}
	case wal.KindSetQuota:
		prior, err := k.TenantQuotaOf(rec.Tenant)
		if err != nil {
			return nil, err
		}
		if err := k.SetTenantQuota(rec.Tenant, ctrlQuota(rec.Quota)); err != nil {
			return nil, err
		}
		undo = func() error { return k.SetTenantQuota(rec.Tenant, prior) }
	case wal.KindRemoveTenant:
		if err := k.RemoveTenant(rec.Tenant); err != nil {
			return nil, err
		}
	case wal.KindIncident:
		// Re-applying a quarantine is idempotent and order-independent with
		// respect to program installs: content not yet resolved is stashed
		// by hash and applied when its health record first exists.
		tier, err := core.ParseEngineTier(rec.Incident.To)
		if err != nil {
			return nil, err
		}
		k.RestoreEngineQuarantine(rec.Incident.Hash, tier)
	case wal.KindAbort, wal.KindEpoch:
		// An abort is settled before apply (Recover's pre-scan,
		// ApplyReplicated's pending record); an epoch mark carries no state.
	case wal.KindAllocState:
		a := rec.Alloc
		if err := k.RestoreAllocState(a.Table, a.Prog, a.Model, a.Mat); err != nil {
			return nil, err
		}
		p.version.Store(a.Version)
	default:
		return nil, fmt.Errorf("%w: unknown record kind %d", wal.ErrCorruptRecord, rec.Kind)
	}
	if rec.Bump {
		p.version.Add(1)
	}
	return undo, nil
}

// applyTxn applies a transaction's steps in order. On the first failure it
// undoes the applied prefix in reverse and returns that failure, undo
// failures joined on: the transaction lands whole or not at all.
func (p *Plane) applyTxn(steps []*mut) error {
	undos := make([]func() error, 0, len(steps))
	for i, s := range steps {
		undo, err := p.apply(s)
		if err == nil {
			undos = append(undos, undo)
			continue
		}
		err = fmt.Errorf("ctrl: txn step %d (%s): %w", i, s, err)
		for j := len(undos) - 1; j >= 0; j-- {
			if uerr := undos[j](); uerr != nil {
				err = errors.Join(err, fmt.Errorf("ctrl: txn rollback of step %d (%s): %w", j, steps[j], uerr))
			}
		}
		p.K.Metrics.Counter("ctrl.txn_rollbacks").Inc()
		return err
	}
	p.K.Metrics.Counter("ctrl.txn_commits").Inc()
	return nil
}

// --- record conversion helpers -------------------------------------------

func walAction(a table.Action) wal.Action {
	return wal.Action{Kind: uint8(a.Kind), Param: a.Param, ProgID: a.ProgID, ModelID: a.ModelID}
}

func ctrlAction(a wal.Action) table.Action {
	return table.Action{Kind: table.ActionKind(a.Kind), Param: a.Param, ProgID: a.ProgID, ModelID: a.ModelID}
}

func walEntry(e *table.Entry) wal.Entry {
	return wal.Entry{
		Key: e.Key, PrefixLen: e.PrefixLen, Lo: e.Lo, Hi: e.Hi,
		Mask: e.Mask, Priority: e.Priority, Action: walAction(e.Action),
	}
}

func ctrlEntry(e *wal.Entry) *table.Entry {
	return &table.Entry{
		Key: e.Key, PrefixLen: e.PrefixLen, Lo: e.Lo, Hi: e.Hi,
		Mask: e.Mask, Priority: e.Priority, Action: ctrlAction(e.Action),
	}
}

func walProgram(prog *isa.Program) *wal.Program {
	cp := func(s []int64) []int64 {
		if len(s) == 0 {
			return nil
		}
		return append([]int64(nil), s...)
	}
	return &wal.Program{
		Name: prog.Name, Hook: prog.Hook, Code: prog.Encode(),
		Helpers: cp(prog.Helpers), Models: cp(prog.Models), Mats: cp(prog.Mats),
		Tables: cp(prog.Tables), Vecs: cp(prog.Vecs), Tails: cp(prog.Tails),
	}
}

func ctrlProgram(wp *wal.Program) (*isa.Program, error) {
	insns, err := isa.DecodeProgram(wp.Code)
	if err != nil {
		return nil, err
	}
	return &isa.Program{
		Name: wp.Name, Hook: wp.Hook, Insns: insns,
		Helpers: wp.Helpers, Models: wp.Models, Mats: wp.Mats,
		Tables: wp.Tables, Vecs: wp.Vecs, Tails: wp.Tails,
	}, nil
}
