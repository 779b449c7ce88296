package ctrl

import (
	"errors"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/table"
)

// TestTxnCommit: a multi-step reconfiguration (program + table + entry +
// model push) lands atomically and the refs resolve.
func TestTxnCommit(t *testing.T) {
	p := newPlane(t)
	mid := p.K.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1})

	txn := p.Begin()
	prog := txn.LoadProgram(&isa.Program{
		Name:  "txn_prog",
		Insns: isa.MustAssemble("movimm r0, 3\nexit"),
	})
	tbl := txn.CreateTable("txn_tab", "hook/txn", table.MatchExact)
	txn.AddEntry("txn_tab", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 9}})
	txn.PushModel(mid, &core.FuncModel{Fn: func([]int64) int64 { return 2 }, Feats: 1}, 0, 0)
	if len(txn.steps) != 4 {
		t.Fatalf("staged %d steps", len(txn.steps))
	}
	if p.Version() != 0 {
		t.Fatalf("version advanced before commit")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if prog.ID == 0 || prog.Report == nil || tbl.ID == 0 {
		t.Fatalf("refs unresolved: prog=%+v tbl=%+v", prog, tbl)
	}
	if p.Version() != 1 {
		t.Fatalf("version = %d, want 1", p.Version())
	}
	if res := p.K.Fire("hook/txn", 1, 0, 0); res.Verdict != 9 {
		t.Fatalf("fire verdict = %d", res.Verdict)
	}
	m, _ := p.K.Model(mid)
	if m.Predict(nil) != 2 {
		t.Fatalf("model not pushed")
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit err = %v", err)
	}
	if got := p.K.Metrics.Counter("ctrl.txn_commits").Load(); got != 1 {
		t.Fatalf("txn_commits = %d", got)
	}
}

// TestTxnRollback: a failing step undoes the applied prefix — table gone,
// program gone, model back to the incumbent, version unchanged.
func TestTxnRollback(t *testing.T) {
	p := newPlane(t)
	mid := p.K.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1})

	txn := p.Begin()
	txn.CreateTable("roll_tab", "hook/roll", table.MatchExact)
	txn.AddEntry("roll_tab", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 9}})
	txn.PushModel(mid, &core.FuncModel{Fn: func([]int64) int64 { return 2 }, Feats: 1}, 0, 0)
	txn.LoadProgram(&isa.Program{
		Name:  "bad",
		Insns: isa.MustAssemble("mov r0, r9\nexit"), // uninitialized read: admission fails
	})
	err := txn.Commit()
	if err == nil {
		t.Fatal("commit of failing txn succeeded")
	}
	if _, _, terr := p.K.TableByName("roll_tab"); !errors.Is(terr, core.ErrNotFound) {
		t.Fatalf("table survived rollback: %v", terr)
	}
	m, _ := p.K.Model(mid)
	if m.Predict(nil) != 1 {
		t.Fatalf("model push survived rollback: predict = %d", m.Predict(nil))
	}
	if p.Version() != 0 {
		t.Fatalf("version = %d after failed commit", p.Version())
	}
	if res := p.K.Fire("hook/roll", 1, 0, 0); res.Matched != 0 {
		t.Fatalf("hook still matches after rollback: %+v", res)
	}
	if got := p.K.Metrics.Counter("ctrl.txn_rollbacks").Load(); got != 1 {
		t.Fatalf("txn_rollbacks = %d", got)
	}
}

// TestTxnUpdateActionRollback: UpdateAction restores the exact prior action.
func TestTxnUpdateActionRollback(t *testing.T) {
	p := newPlane(t)
	if _, _, err := p.CreateTable("ua_tab", "hook/ua", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("ua_tab", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 5}}); err != nil {
		t.Fatal(err)
	}
	txn := p.Begin()
	txn.UpdateAction("ua_tab", 1, table.Action{Kind: table.ActionParam, Param: 50})
	txn.AddEntry("no_such_table", &table.Entry{Key: 1}) // forces rollback
	if err := txn.Commit(); err == nil {
		t.Fatal("commit succeeded")
	}
	if res := p.K.Fire("hook/ua", 1, 0, 0); res.Verdict != 5 {
		t.Fatalf("action not restored: verdict = %d", res.Verdict)
	}
}

// TestTxnConflict: a transaction begun before another commit refuses to
// apply anything.
func TestTxnConflict(t *testing.T) {
	p := newPlane(t)
	stale := p.Begin()
	stale.CreateTable("stale_tab", "hook/s", table.MatchExact)

	fresh := p.Begin()
	fresh.CreateTable("fresh_tab", "hook/f", table.MatchExact)
	if err := fresh.Commit(); err != nil {
		t.Fatal(err)
	}

	err := stale.Commit()
	if !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("stale commit err = %v, want ErrTxnConflict", err)
	}
	if _, _, terr := p.K.TableByName("stale_tab"); !errors.Is(terr, core.ErrNotFound) {
		t.Fatalf("stale txn applied steps: %v", terr)
	}
}

// TestTxnAddEntryRollbackRestoresDisplaced: staging an AddEntry over an
// existing exact-match key replaces that row; when the transaction rolls
// back, the incumbent row must come back as the same Entry pointer, live,
// with its action intact, and keep serving the hook's fires.
func TestTxnAddEntryRollbackRestoresDisplaced(t *testing.T) {
	p := newPlane(t)
	if _, _, err := p.CreateTable("disp_tab", "hook/disp", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("disp_tab", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 5}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res := p.K.Fire("hook/disp", 1, 0, 0); res.Verdict != 5 {
			t.Fatalf("warmup verdict = %d", res.Verdict)
		}
	}
	tb, _, err := p.K.TableByName("disp_tab")
	if err != nil {
		t.Fatal(err)
	}
	incumbent := tb.Probe(1)

	txn := p.Begin()
	txn.AddEntry("disp_tab", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 50}})
	txn.AddEntry("no_such_table", &table.Entry{Key: 9}) // forces rollback
	if err := txn.Commit(); err == nil {
		t.Fatal("commit succeeded")
	}

	e := tb.Probe(1)
	if e == nil {
		t.Fatal("displaced entry not restored")
	}
	if e != incumbent || !e.Live() {
		t.Fatalf("restored entry %p (live %v), want the displaced %p live", e, e.Live(), incumbent)
	}
	if e.Action.Param != 5 {
		t.Fatalf("restored action param = %d, want 5", e.Action.Param)
	}
	if res := p.K.Fire("hook/disp", 1, 0, 0); res.Verdict != 5 {
		t.Fatalf("post-rollback verdict = %d", res.Verdict)
	}
	if tb.Probe(1) != incumbent {
		t.Fatal("a fire after the rollback left another entry in the slot")
	}
}
