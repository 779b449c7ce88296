package table

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestExactMatch(t *testing.T) {
	tb := New("t", "hook", MatchExact)
	if err := tb.Insert(&Entry{Key: 56, Action: Action{Kind: ActionParam, Param: 7}}); err != nil {
		t.Fatal(err)
	}
	if e := tb.Lookup(56); e == nil || e.Action.Param != 7 {
		t.Fatalf("lookup(56) = %+v", e)
	}
	if e := tb.Lookup(57); e != nil {
		t.Fatalf("lookup(57) = %+v, want nil", e)
	}
	// Replacement.
	if err := tb.Insert(&Entry{Key: 56, Action: Action{Kind: ActionParam, Param: 8}}); err != nil {
		t.Fatal(err)
	}
	if e := tb.Lookup(56); e.Action.Param != 8 {
		t.Fatalf("replacement param = %d", e.Action.Param)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestPrefixLongestWins(t *testing.T) {
	tb := New("t", "hook", MatchPrefix)
	wide := &Entry{Key: 0xff00 << 48, PrefixLen: 8, Action: Action{Kind: ActionParam, Param: 1}}
	narrow := &Entry{Key: 0xff00 << 48, PrefixLen: 16, Action: Action{Kind: ActionParam, Param: 2}}
	if err := tb.Insert(wide); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(narrow); err != nil {
		t.Fatal(err)
	}
	// A key matching both prefixes selects the longer one.
	key := uint64(0xff00)<<48 | 12345
	if e := tb.Lookup(key); e.Action.Param != 2 {
		t.Fatalf("LPM chose param %d, want 2", e.Action.Param)
	}
	// A key matching only the /8.
	key2 := uint64(0xff01)<<48 | 7
	if e := tb.Lookup(key2); e.Action.Param != 1 {
		t.Fatalf("fallback chose param %d, want 1", e.Action.Param)
	}
	if e := tb.Lookup(1); e != nil {
		t.Fatalf("unmatched key hit %+v", e)
	}
}

func TestPrefixZeroLenMatchesAll(t *testing.T) {
	tb := New("t", "hook", MatchPrefix)
	if err := tb.Insert(&Entry{PrefixLen: 0, Action: Action{Kind: ActionParam, Param: 9}}); err != nil {
		t.Fatal(err)
	}
	if e := tb.Lookup(rand.Uint64()); e == nil || e.Action.Param != 9 {
		t.Fatal("prefix 0 should match everything")
	}
}

func TestPrefixMatchAgainstReference(t *testing.T) {
	ref := func(key, val uint64, plen uint8) bool {
		if plen > 64 {
			plen = 64
		}
		for b := 0; b < int(plen); b++ {
			bit := uint(63 - b)
			if (key>>bit)&1 != (val>>bit)&1 {
				return false
			}
		}
		return true
	}
	f := func(key, val uint64, plen uint8) bool {
		p := plen % 65
		return prefixMatch(key, val, p) == ref(key, val, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangePriority(t *testing.T) {
	tb := New("t", "hook", MatchRange)
	if err := tb.Insert(&Entry{Lo: 0, Hi: 100, Priority: 1, Action: Action{Kind: ActionParam, Param: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(&Entry{Lo: 50, Hi: 60, Priority: 5, Action: Action{Kind: ActionParam, Param: 2}}); err != nil {
		t.Fatal(err)
	}
	if e := tb.Lookup(55); e.Action.Param != 2 {
		t.Fatalf("priority lost: param %d", e.Action.Param)
	}
	if e := tb.Lookup(99); e.Action.Param != 1 {
		t.Fatalf("outer range param %d", e.Action.Param)
	}
	if e := tb.Lookup(101); e != nil {
		t.Fatal("out-of-range key matched")
	}
	if err := tb.Insert(&Entry{Lo: 10, Hi: 5}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestRangeInsertAfterLookup: an overlapping range of higher priority,
// inserted after a lookup, is what the next lookup of the same key returns,
// and the insert bumps the version.
func TestRangeInsertAfterLookup(t *testing.T) {
	tb := New("ranges", "hk", MatchRange)
	if err := tb.Insert(&Entry{Lo: 0, Hi: 99, Action: Action{Kind: ActionParam, Param: 1}}); err != nil {
		t.Fatal(err)
	}
	if e := tb.Lookup(50); e == nil || e.Action.Param != 1 {
		t.Fatalf("lookup before insert: %+v", e)
	}
	ver := tb.Version()
	if err := tb.Insert(&Entry{Lo: 40, Hi: 60, Priority: 10, Action: Action{Kind: ActionParam, Param: 2}}); err != nil {
		t.Fatal(err)
	}
	if tb.Version() == ver {
		t.Fatal("Insert did not bump version")
	}
	if e := tb.Lookup(50); e == nil || e.Action.Param != 2 {
		t.Fatalf("lookup after insert returned stale entry: %+v", e)
	}
}

func TestTernary(t *testing.T) {
	tb := New("t", "hook", MatchTernary)
	// Match any key with low byte 0x2a.
	if err := tb.Insert(&Entry{Key: 0x2a, Mask: 0xff, Priority: 2, Action: Action{Kind: ActionParam, Param: 1}}); err != nil {
		t.Fatal(err)
	}
	// Catch-all at lower priority.
	if err := tb.Insert(&Entry{Mask: 0, Priority: 0, Action: Action{Kind: ActionParam, Param: 99}}); err != nil {
		t.Fatal(err)
	}
	if e := tb.Lookup(0x112a); e.Action.Param != 1 {
		t.Fatalf("ternary param %d", e.Action.Param)
	}
	if e := tb.Lookup(0x1100); e.Action.Param != 99 {
		t.Fatalf("catch-all param %d", e.Action.Param)
	}
}

func TestDefaultAction(t *testing.T) {
	tb := New("t", "hook", MatchExact)
	tb.SetDefault(&Action{Kind: ActionParam, Param: -5})
	if e := tb.Lookup(1); e == nil || e.Action.Param != -5 {
		t.Fatalf("default = %+v", e)
	}
	tb.SetDefault(nil)
	if e := tb.Lookup(1); e != nil {
		t.Fatal("cleared default still matches")
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	tb := New("t", "hook", MatchExact)
	_ = tb.Insert(&Entry{Key: 1, Action: Action{Kind: ActionParam, Param: 1}})
	if !tb.UpdateAction(1, Action{Kind: ActionParam, Param: 2}) {
		t.Fatal("update failed")
	}
	if e := tb.Lookup(1); e.Action.Param != 2 {
		t.Fatal("update not visible")
	}
	if tb.UpdateAction(9, Action{}) {
		t.Fatal("update of missing key succeeded")
	}
	if !tb.Delete(&Entry{Key: 1}) {
		t.Fatal("delete failed")
	}
	if tb.Delete(&Entry{Key: 1}) {
		t.Fatal("double delete succeeded")
	}
	tr := New("t2", "hook", MatchRange)
	e := &Entry{Lo: 1, Hi: 5, Priority: 3}
	_ = tr.Insert(e)
	if !tr.Delete(&Entry{Lo: 1, Hi: 5, Priority: 3}) {
		t.Fatal("range delete failed")
	}
	if tr.Len() != 0 {
		t.Fatal("range entry survives delete")
	}
}

// TestEntryLiveness: an entry is live exactly while it is in its table's
// snapshot — every mutator that replaces or removes it retires it, and
// re-inserting the same pointer revives it.
func TestEntryLiveness(t *testing.T) {
	tb := New("t", "hook", MatchExact)
	p := func(v int64) Action { return Action{Kind: ActionParam, Param: v} }
	a := &Entry{Key: 1, Action: p(1)}
	_ = tb.Insert(a)
	_ = tb.Insert(a) // over itself: still the same row
	if !a.Live() {
		t.Fatal("an entry re-inserted over itself was retired")
	}
	tb.UpdateAction(1, p(2))
	b := tb.Probe(1)
	if a.Live() || !b.Live() || b == a {
		t.Fatalf("UpdateAction: old live %v, clone live %v", a.Live(), b.Live())
	}
	c := &Entry{Key: 1, Action: p(3)}
	_ = tb.Insert(c)
	if b.Live() || !c.Live() {
		t.Fatalf("Insert over a key: displaced live %v, new live %v", b.Live(), c.Live())
	}
	tb.Delete(&Entry{Key: 1})
	if c.Live() {
		t.Fatal("a deleted entry is live")
	}
	_ = tb.Insert(c)
	if !c.Live() || tb.Probe(1) != c {
		t.Fatal("re-inserting a retired entry did not revive it")
	}

	// A default is retired by the SetDefault that replaces or clears it.
	tb.SetDefault(&Action{Kind: ActionParam, Param: 5})
	d1 := tb.Default()
	tb.SetDefault(&Action{Kind: ActionParam, Param: 6})
	d2 := tb.Default()
	if d1.Live() || !d2.Live() {
		t.Fatalf("SetDefault over a default: old live %v, new live %v", d1.Live(), d2.Live())
	}
	tb.SetDefault(nil)
	if d2.Live() {
		t.Fatal("a cleared default is live")
	}

	// A scan table's entries follow the same rule.
	pt := New("p", "hook", MatchPrefix)
	x := &Entry{Key: 1 << 63, PrefixLen: 1, Action: p(7)}
	y := &Entry{Key: 0, PrefixLen: 1, Action: p(8)}
	_ = pt.Insert(x)
	_ = pt.Insert(y)
	pt.Delete(x)
	if x.Live() || !y.Live() {
		t.Fatalf("prefix Delete: removed live %v, kept live %v", x.Live(), y.Live())
	}
	_ = pt.Insert(x)
	if !x.Live() {
		t.Fatal("re-inserting a retired prefix entry did not revive it")
	}
}

// TestLookupMatchSeparatesDefault: LookupMatch reports a matched entry as
// matched and the default it falls back to as not.
func TestLookupMatchSeparatesDefault(t *testing.T) {
	tb := New("t", "hook", MatchExact)
	_ = tb.Insert(&Entry{Key: 1, Action: Action{Kind: ActionParam, Param: 1}})
	tb.SetDefault(&Action{Kind: ActionParam, Param: 9})
	if e, ok := tb.LookupMatch(1); !ok || e.Action.Param != 1 {
		t.Fatalf("key 1: %+v matched %v", e, ok)
	}
	if e, ok := tb.LookupMatch(2); ok || e != tb.Default() {
		t.Fatalf("key 2: %+v matched %v, want the default unmatched", e, ok)
	}
	tb.SetDefault(nil)
	if e, ok := tb.LookupMatch(2); ok || e != nil {
		t.Fatalf("key 2 with no default: %+v matched %v", e, ok)
	}
}

func TestEntriesSnapshot(t *testing.T) {
	tb := New("t", "hook", MatchExact)
	for _, k := range []uint64{5, 1, 3} {
		_ = tb.Insert(&Entry{Key: k})
	}
	es := tb.Entries()
	if len(es) != 3 || es[0].Key != 1 || es[2].Key != 5 {
		t.Fatalf("snapshot = %v", es)
	}
}

func TestConcurrentLookupInsert(t *testing.T) {
	tb := New("t", "hook", MatchExact)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := uint64(g*1000 + i)
				_ = tb.Insert(&Entry{Key: k, Action: Action{Kind: ActionParam, Param: int64(k)}})
				if e := tb.Lookup(k); e == nil || e.Action.Param != int64(k) {
					t.Errorf("lost key %d", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tb.Len() != 4000 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestKindAndActionStrings(t *testing.T) {
	for _, k := range []MatchKind{MatchExact, MatchPrefix, MatchRange, MatchTernary, MatchKind(9)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	for _, a := range []ActionKind{ActionPass, ActionCollect, ActionInfer, ActionProgram, ActionParam, ActionKind(9)} {
		if a.String() == "" {
			t.Fatal("empty action string")
		}
	}
}
