package ctrl

import (
	"errors"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

// TestCrashBetweenAppendAndApply is the commit-atomicity acceptance test:
// for every mutation kind, a crash in the window between the durable log
// append and the in-memory apply leaves the system in exactly the
// pre-mutation state (live memory untouched) while recovery lands in
// exactly the post-mutation state (the log committed it). There is no third
// possibility — in particular no half-applied transaction.
func TestCrashBetweenAppendAndApply(t *testing.T) {
	cases := []struct {
		name string
		kind wal.Kind
		do   func(p *Plane) error
		// post checks the mutation landed on the recovered plane.
		post func(t *testing.T, p *Plane)
	}{
		{
			name: "add-entry",
			kind: wal.KindAddEntry,
			do: func(p *Plane) error {
				return p.AddEntry("flow_tab", &table.Entry{Key: 50, Action: table.Action{Kind: table.ActionParam, Param: 50}})
			},
			post: func(t *testing.T, p *Plane) {
				if res := p.K.Fire("hook/rec", 50, 0, 0); res.Verdict != 50 {
					t.Fatalf("entry missing after recovery: verdict %d", res.Verdict)
				}
			},
		},
		{
			name: "remove-entry",
			kind: wal.KindRemoveEntry,
			do: func(p *Plane) error {
				return p.RemoveEntry("flow_tab", &table.Entry{Key: 1})
			},
			post: func(t *testing.T, p *Plane) {
				tb, _, err := p.K.TableByName("flow_tab")
				if err != nil {
					t.Fatal(err)
				}
				if tb.Probe(1) != nil {
					t.Fatal("entry survived recovery")
				}
			},
		},
		{
			name: "update-action",
			kind: wal.KindUpdateAction,
			do: func(p *Plane) error {
				return p.UpdateAction("flow_tab", 1, table.Action{Kind: table.ActionParam, Param: 77})
			},
			post: func(t *testing.T, p *Plane) {
				if res := p.K.Fire("hook/rec", 1, 0, 0); res.Verdict != 77 {
					t.Fatalf("action not updated after recovery: verdict %d", res.Verdict)
				}
			},
		},
		{
			name: "create-table",
			kind: wal.KindCreateTable,
			do: func(p *Plane) error {
				_, _, err := p.CreateTable("crash_tab", "hook/crash", table.MatchExact)
				return err
			},
			post: func(t *testing.T, p *Plane) {
				if _, _, err := p.K.TableByName("crash_tab"); err != nil {
					t.Fatalf("table missing after recovery: %v", err)
				}
			},
		},
		{
			name: "load-program",
			kind: wal.KindLoadProgram,
			do: func(p *Plane) error {
				_, _, err := p.LoadProgram(&isa.Program{
					Name: "crash_prog", Hook: "hook/rec",
					Insns: isa.MustAssemble("movimm r0, 9\nexit"),
				})
				return err
			},
			post: func(t *testing.T, p *Plane) {
				if _, err := p.K.ProgramID("crash_prog"); err != nil {
					t.Fatalf("program missing after recovery: %v", err)
				}
			},
		},
		{
			name: "push-model",
			kind: wal.KindPushModel,
			do: func(p *Plane) error {
				return p.PushModel(1, testTree(9), 0, 0)
			},
			post: func(t *testing.T, p *Plane) {
				m, err := p.K.Model(1)
				if err != nil {
					t.Fatal(err)
				}
				if got := m.Predict([]int64{100}); got != 9 {
					t.Fatalf("model not pushed after recovery: predict %d", got)
				}
			},
		},
		{
			name: "txn-commit",
			kind: wal.KindTxnCommit,
			do: func(p *Plane) error {
				txn := p.Begin()
				txn.CreateTable("crash_txn_tab", "hook/ct", table.MatchExact)
				txn.AddEntry("crash_txn_tab", &table.Entry{Key: 3, Action: table.Action{Kind: table.ActionParam, Param: 33}})
				txn.AddEntry("flow_tab", &table.Entry{Key: 60, Action: table.Action{Kind: table.ActionParam, Param: 60}})
				return txn.Commit()
			},
			post: func(t *testing.T, p *Plane) {
				// All of the transaction or none of it: here, all.
				if res := p.K.Fire("hook/ct", 3, 0, 0); res.Verdict != 33 {
					t.Fatalf("txn table entry missing: verdict %d", res.Verdict)
				}
				if res := p.K.Fire("hook/rec", 60, 0, 0); res.Verdict != 60 {
					t.Fatalf("txn flow entry missing: verdict %d", res.Verdict)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, dir := newDurablePlane(t)
			// Base state: a table with entries and a model with two pushed
			// versions.
			if _, _, err := p.CreateTable("flow_tab", "hook/rec", table.MatchExact); err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 2; k++ {
				if err := p.AddEntry("flow_tab", &table.Entry{
					Key: k, Action: table.Action{Kind: table.ActionParam, Param: int64(10 * k)},
				}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.RegisterModel(testTree(1)); err != nil {
				t.Fatal(err)
			}
			if err := p.PushModel(1, testTree(2), 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := p.PushModel(1, testTree(3), 0, 0); err != nil {
				t.Fatal(err)
			}

			before := p.InventoryDigest()
			p.crashAfter = func(k wal.Kind) bool { return k == tc.kind }
			err := tc.do(p)
			p.crashAfter = nil
			if !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("mutation returned %v, want simulated crash", err)
			}
			// Pre state: the live plane's memory is exactly untouched.
			if got := p.InventoryDigest(); got != before {
				t.Fatal("crash window mutated in-memory state")
			}
			// Post state: recovery applies the logged mutation.
			detachWAL(t, p)
			rec, _ := recoverDir(t, dir)
			tc.post(t, rec)
		})
	}
}
