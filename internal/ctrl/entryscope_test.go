package ctrl

import (
	"testing"

	"rmtk/internal/table"
)

// TestEntryScopedInvalidation: a cached verdict that matched an exact-table
// entry dies with that entry and only with it. Each mutator of key 1 misses
// key 1's flow and leaves keys 0, 2 and 3 replaying; a miss or default row
// (key 9 has no entry) dies with every mutation of its table, as does every
// row of a prefix table; and a rolled-back insert over key 1, or a delete and
// re-insert of its entry, puts the same entry back live, so its verdict
// replays again.
func TestEntryScopedInvalidation(t *testing.T) {
	const hook = "scope/h"
	param := func(v int64) table.Action { return table.Action{Kind: table.ActionParam, Param: v} }
	keys := []int64{0, 1, 2, 3, 9}
	setup := func(t *testing.T) (*Plane, *table.Table) {
		t.Helper()
		p := newPlane(t)
		tb, _, err := p.CreateTable("scope_tab", hook, table.MatchExact)
		if err != nil {
			t.Fatal(err)
		}
		for key := uint64(0); key < 4; key++ {
			if err := tb.Insert(&table.Entry{Key: key, Action: param(100 + int64(key))}); err != nil {
				t.Fatal(err)
			}
		}
		tb.SetDefault(&table.Action{Kind: table.ActionParam, Param: 900})
		for i := 0; i < 3; i++ { // fingerprint, store, replay
			for _, key := range keys {
				p.K.Fire(hook, key, 0, 0)
			}
		}
		return p, tb
	}
	// expect fires every key once: those in stale must miss and read want's
	// verdict, the others replay the verdict they were cached with.
	expect := func(t *testing.T, p *Plane, stale map[int64]int64) {
		t.Helper()
		for _, key := range keys {
			res := p.K.Fire(hook, key, 0, 0)
			want, isStale := stale[key]
			if !isStale {
				want = 100 + key
				if key == 9 {
					want = 900
				}
			}
			if res.CacheHit == isStale || res.Verdict != want {
				t.Errorf("key %d: %+v, want verdict %d, CacheHit=%v", key, res, want, !isStale)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, tb *table.Table)
		stale  map[int64]int64
	}{
		{"UpdateAction", func(t *testing.T, tb *table.Table) {
			if !tb.UpdateAction(1, param(501)) {
				t.Fatal("no key 1")
			}
		}, map[int64]int64{1: 501, 9: 900}},
		{"InsertOverKey", func(t *testing.T, tb *table.Table) {
			if err := tb.Insert(&table.Entry{Key: 1, Action: param(501)}); err != nil {
				t.Fatal(err)
			}
		}, map[int64]int64{1: 501, 9: 900}},
		{"Delete", func(t *testing.T, tb *table.Table) {
			if !tb.Delete(&table.Entry{Key: 1}) {
				t.Fatal("no key 1")
			}
		}, map[int64]int64{1: 900, 9: 900}},
		{"InsertNewKey", func(t *testing.T, tb *table.Table) {
			if err := tb.Insert(&table.Entry{Key: 9, Action: param(509)}); err != nil {
				t.Fatal(err)
			}
		}, map[int64]int64{9: 509}},
		{"SetDefault", func(t *testing.T, tb *table.Table) {
			tb.SetDefault(&table.Action{Kind: table.ActionParam, Param: 901})
		}, map[int64]int64{9: 901}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, tb := setup(t)
			tc.mutate(t, tb)
			expect(t, p, tc.stale)
		})
	}

	t.Run("Prefix", func(t *testing.T) {
		p := newPlane(t)
		tb, _, err := p.CreateTable("scope_lpm", "scope/p", table.MatchPrefix)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(&table.Entry{Key: 0x12 << 56, PrefixLen: 8, Action: param(7)}); err != nil {
			t.Fatal(err)
		}
		const key = 0x12<<56 | 5 // inside 0x12/8
		for i := 0; i < 3; i++ {
			p.K.Fire("scope/p", key, 0, 0)
		}
		// An insert that cannot change this key's match still kills the row:
		// scan tables' rows are stamped by version.
		if err := tb.Insert(&table.Entry{Key: 0x34 << 56, PrefixLen: 16, Action: param(8)}); err != nil {
			t.Fatal(err)
		}
		if res := p.K.Fire("scope/p", key, 0, 0); res.CacheHit || res.Verdict != 7 {
			t.Fatalf("prefix row after an insert: %+v, want a miss with verdict 7", res)
		}
	})

	// The restores: an insert over key 1 undone by a transaction that fails
	// (ctrl.Txn's AddEntry undo deletes the new entry and re-inserts the
	// displaced pointer), and key 1's entry deleted and re-inserted. Either
	// way key 1's verdict, stamped by the entry that is back, replays.
	for _, tc := range []struct {
		name    string
		restore func(t *testing.T, p *Plane, tb *table.Table)
	}{
		{"TxnAddEntryRollback", func(t *testing.T, p *Plane, _ *table.Table) {
			txn := p.Begin()
			txn.AddEntry("scope_tab", &table.Entry{Key: 1, Action: param(777)})
			txn.AddEntry("no_such_table", &table.Entry{Key: 1, Action: param(778)})
			if err := txn.Commit(); err == nil {
				t.Fatal("commit of a refusing transaction succeeded")
			}
		}},
		{"DeleteReinsert", func(t *testing.T, _ *Plane, tb *table.Table) {
			e := tb.Probe(1)
			if !tb.Delete(e) {
				t.Fatal("delete of key 1 failed")
			}
			if err := tb.Insert(e); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, tb := setup(t)
			e := tb.Probe(1)
			tc.restore(t, p, tb)
			if got := tb.Probe(1); got != e || !e.Live() {
				t.Fatalf("restore left key 1 as %p, want the original %p live (live: %v)", got, e, e.Live())
			}
			expect(t, p, map[int64]int64{9: 900})
		})
	}
}
