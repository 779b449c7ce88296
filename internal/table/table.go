// Package table implements RMT match/action tables and the execution-context
// store (RMT_CTXT) described in §3.1 of the paper.
//
// A table is installed at a kernel hook point (a "decision point in the
// kernel datapath"). Each entry represents a decision control flow: the match
// fields select on the current execution context (PID, inode, cgroup id, ...)
// and the action encodes what to do — run a bytecode program, collect data,
// consult an ML model, or set a tuning parameter. Entries can be statically
// encoded in an RMT program or inserted/removed at runtime via the control
// plane API (internal/ctrl).
//
// Reads are lock-free: the live entry set is a snapshot behind an atomic
// pointer. An exact table keeps its entries in an open-addressed index of
// atomic slots (exact.go) that a single-key edit stores into in place; the
// other kinds are copy-on-write. Every mutator stores, then bumps the table
// version, then retires the entries it displaced (Entry.Live). A lookup
// writes no shared memory: it loads the snapshot and probes the exact index
// or walks the prefix/range/ternary entries.
package table

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// MatchKind selects the matching discipline of a table.
type MatchKind uint8

const (
	// MatchExact matches keys exactly (e.g. a PID).
	MatchExact MatchKind = iota
	// MatchPrefix matches the high-order PrefixLen bits of the key
	// (longest prefix wins), useful for address ranges and subdirectory
	// aggregates.
	MatchPrefix
	// MatchRange matches Lo <= key <= Hi (highest priority wins), useful
	// for size classes and load bands.
	MatchRange
	// MatchTernary matches key&Mask == Value&Mask (highest priority wins),
	// the general RMT discipline.
	MatchTernary
)

// String returns the name of the match kind.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchPrefix:
		return "prefix"
	case MatchRange:
		return "range"
	case MatchTernary:
		return "ternary"
	default:
		return fmt.Sprintf("matchkind(%d)", uint8(k))
	}
}

// ActionKind is the type of action an entry triggers on match.
type ActionKind uint8

const (
	// ActionPass takes no action (the hook's default behaviour applies).
	ActionPass ActionKind = iota
	// ActionCollect records the hook event into the execution context
	// (data-collection phase of learning).
	ActionCollect
	// ActionInfer consults ML model ModelID on the match key's context.
	ActionInfer
	// ActionProgram runs bytecode program ProgID.
	ActionProgram
	// ActionParam returns Param directly (a learned configuration value,
	// e.g. a prefetch degree or a scheduler knob).
	ActionParam
)

// String returns the name of the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionPass:
		return "pass"
	case ActionCollect:
		return "collect"
	case ActionInfer:
		return "infer"
	case ActionProgram:
		return "program"
	case ActionParam:
		return "param"
	default:
		return fmt.Sprintf("actionkind(%d)", uint8(k))
	}
}

// Action is what a matched entry does.
type Action struct {
	Kind    ActionKind
	Param   int64 // ActionParam value; also passed to programs in R3
	ProgID  int64 // ActionProgram target
	ModelID int64 // ActionInfer target
}

// Entry is one match/action row.
type Entry struct {
	// Key is the exact-match key, the prefix value (MatchPrefix), or the
	// ternary value (MatchTernary).
	Key uint64
	// PrefixLen is the number of significant high-order bits for
	// MatchPrefix tables (0..64).
	PrefixLen uint8
	// Lo and Hi bound MatchRange entries (inclusive).
	Lo, Hi uint64
	// Mask is the ternary care-mask for MatchTernary tables.
	Mask uint64
	// Priority breaks ties for range/ternary tables; larger wins.
	Priority int32
	// Action is taken on match. It is immutable once the entry is inserted:
	// a rewrite (UpdateAction) publishes a clone.
	Action Action

	// retired is set once the entry has left its table.
	retired atomic.Bool
}

// Live reports whether the entry is in its table's live entry set: false from
// the moment a mutator that replaced or removed it (UpdateAction, Insert over
// its exact key, Delete, SetDefault for a default) has
// published, true again once it is re-inserted (a transaction rollback
// restores the displaced pointer). Since
// an exact-table lookup of key K returns the live entry for K, a verdict that
// matched e there is current exactly while e is live. An entry must belong to
// one table at a time.
func (e *Entry) Live() bool { return !e.retired.Load() }

// clone returns a live copy of the entry.
func (e *Entry) clone() *Entry {
	return &Entry{
		Key: e.Key, PrefixLen: e.PrefixLen, Lo: e.Lo, Hi: e.Hi,
		Mask: e.Mask, Priority: e.Priority, Action: e.Action,
	}
}

// tableSnap is the live entry set. Lookup loads it once and never takes a
// lock. The exact index is shared between successive snapshots and edited in
// place (exact.go); a snapshot is replaced when the index is rebuilt, when a
// prefix/range/ternary entry or the default changes (those fields are
// immutable: the mutator publishes a shallow copy). Entry pointers are shared
// between successive snapshots, so an entry's liveness survives snapshot churn.
type tableSnap struct {
	exact   *exactIndex // exact-table entries; empty for the other kinds
	entries []*Entry    // prefix/range/ternary entries, sorted by specificity
	deflt   *Entry      // optional default entry when nothing matches
}

// Table is one reconfigurable match table.
type Table struct {
	// Name identifies the table (e.g. "page_prefetch_tab").
	Name string
	// Hook names the kernel hook point the table is installed at
	// (e.g. "mm/swap_cluster_readahead").
	Hook string
	// Kind is the matching discipline; fixed at construction.
	Kind MatchKind

	mu       sync.Mutex // serializes mutators; readers never take it
	snap     atomic.Pointer[tableSnap]
	version  atomic.Uint64
	onMutate atomic.Pointer[func()]

	// exactLen and exactTombs count the entries and tombstones in the exact
	// index; mu guards their writes, and Len reads exactLen without it.
	exactLen   atomic.Int64
	exactTombs int
}

// New creates an empty table.
func New(name, hook string, kind MatchKind) *Table {
	t := &Table{Name: name, Hook: hook, Kind: kind}
	t.snap.Store(&tableSnap{exact: newExactIndex(minSlots)})
	return t
}

// Version reports the table's mutation counter: every mutation bumps it. A
// cached verdict stamps with it the rows whose answer any mutation can change
// — a miss, the default, a match in a prefix/range/ternary table. An
// exact-table match is stamped by its entry instead (Entry.Live), so an edit
// of one key leaves the others' verdicts.
func (t *Table) Version() uint64 { return t.version.Load() }

// SetOnMutate registers a callback invoked after every committed mutation
// (insert, delete, update, default change). The kernel uses it to
// advance its datapath generation; cached verdicts that consulted the table
// notice the mutation by Version.
func (t *Table) SetOnMutate(fn func()) {
	if fn == nil {
		t.onMutate.Store(nil)
		return
	}
	t.onMutate.Store(&fn)
}

// publish makes a mutation visible; the caller holds t.mu. It installs sn as
// the live snapshot (nil: the mutation stored into the live exact index in
// place and built none), bumps the version, then settles entry
// liveness from what the mutator reports: it retires the entries that left
// the table (out) and revives the one it stored (in), which a transaction
// rollback re-inserting a displaced pointer needs. The order matters for the
// version: a reader that observes version v finds entries at least as new as
// v's, so a stale lookup can only be stamped with a stale version. It matters
// for a revival too: a revived entry's cached verdicts replay only once
// lookups find the entry again. A retirement is safe on either side of the
// store, since a fire only gets an entry out of a lookup, and follows it to
// keep one order. Every mutator ends here under t.mu, so retirements and
// revivals land in mutation order.
func (t *Table) publish(sn *tableSnap, in *Entry, out ...*Entry) {
	if sn != nil {
		t.snap.Store(sn)
	}
	t.version.Add(1)
	for _, e := range out {
		if e != nil {
			e.retired.Store(true)
		}
	}
	if in != nil {
		revive(in)
	}
	if fn := t.onMutate.Load(); fn != nil {
		(*fn)()
	}
}

// revive marks an entry a mutation stored live, writing the flag only when
// it was retired.
func revive(e *Entry) {
	if e.retired.Load() {
		e.retired.Store(false)
	}
}

// mutate applies fn to a shallow copy of the live snapshot (sharing entry
// pointers and the exact index) and publishes it; fn returns the entry it
// stored and the one it removed (nil: none). Prefix/range/ternary edits and
// default changes go through it.
func (t *Table) mutate(fn func(sn *tableSnap) (in, out *Entry)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	sn := &tableSnap{
		exact:   old.exact,
		entries: append([]*Entry(nil), old.entries...),
		deflt:   old.deflt,
	}
	in, out := fn(sn)
	t.publish(sn, in, out)
}

// editExact is a single-key edit of the exact index: fn gets key's current
// entry (nil: none) and returns the entry key should have (nil: none). A
// changed slot is stored in place. A new key that would fill the index past
// half first rebuilds it, and a delete that leaves it sparse rebuilds it
// smaller; a rebuilt index is published with a new snapshot. Either way the
// edit is published like any mutation. It returns the entry the edit found.
func (t *Table) editExact(key uint64, fn func(cur *Entry) *Entry) *Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	x := old.exact
	slot, cur := probeExact(x, key)
	e := fn(cur)
	if e == cur { // nothing to store; the call still counts as a mutation
		t.publish(nil, nil)
		return cur
	}
	live := int(t.exactLen.Load())
	switch {
	case e == nil:
		x.kill(slot)
		live--
		t.exactTombs++
		if x.sparse(live) {
			x, t.exactTombs = x.rebuilt(live), 0
		}
	case cur == nil:
		if x.full(live, t.exactTombs) {
			x, t.exactTombs = x.rebuilt(live), 0
			slot, _ = probeExact(x, key)
		}
		slot.Store(e)
		live++
	default:
		slot.Store(e)
	}
	t.exactLen.Store(int64(live))
	var sn *tableSnap // set when a rebuilt index needs a new snapshot
	if x != old.exact {
		sn = &tableSnap{exact: x, entries: old.entries, deflt: old.deflt}
	}
	t.publish(sn, e, cur)
	return cur
}

// SetDefault installs the action used when no entry matches. Passing nil
// clears it. The default it replaces is retired.
func (t *Table) SetDefault(a *Action) {
	t.mutate(func(sn *tableSnap) (in, out *Entry) {
		out, sn.deflt = sn.deflt, nil
		if a != nil {
			sn.deflt = &Entry{Action: *a}
		}
		return nil, out
	})
}

// Insert adds an entry. For exact tables an existing entry with the same key
// is replaced (and retired). For other kinds the entry is added and ordering
// recomputed. Inserting a retired entry revives it.
func (t *Table) Insert(e *Entry) error {
	if err := t.validate(e); err != nil {
		return err
	}
	if t.Kind == MatchExact {
		t.editExact(e.Key, func(*Entry) *Entry { return e })
		return nil
	}
	t.mutate(func(sn *tableSnap) (in, out *Entry) {
		sn.entries = append(sn.entries, e)
		t.reorder(sn)
		return e, nil
	})
	return nil
}

func (t *Table) validate(e *Entry) error {
	switch t.Kind {
	case MatchExact:
	case MatchPrefix:
		if e.PrefixLen > 64 {
			return fmt.Errorf("table %s: prefix length %d > 64", t.Name, e.PrefixLen)
		}
	case MatchRange:
		if e.Lo > e.Hi {
			return fmt.Errorf("table %s: empty range [%d,%d]", t.Name, e.Lo, e.Hi)
		}
	case MatchTernary:
	default:
		return fmt.Errorf("table %s: bad match kind %d", t.Name, t.Kind)
	}
	return nil
}

// reorder sorts entries most-specific-first: longer prefixes first for LPM,
// then higher priority, with insertion order as the final tiebreak
// (stable sort).
func (t *Table) reorder(sn *tableSnap) {
	sort.SliceStable(sn.entries, func(i, j int) bool {
		a, b := sn.entries[i], sn.entries[j]
		if t.Kind == MatchPrefix && a.PrefixLen != b.PrefixLen {
			return a.PrefixLen > b.PrefixLen
		}
		return a.Priority > b.Priority
	})
}

// Delete removes entries matching the given exact key (exact tables) or the
// identical match spec (other kinds). It reports whether anything was
// removed. The removed entry is retired.
func (t *Table) Delete(e *Entry) bool {
	if t.Kind == MatchExact {
		return t.editExact(e.Key, func(*Entry) *Entry { return nil }) != nil
	}
	var removed *Entry
	t.mutate(func(sn *tableSnap) (in, out *Entry) {
		for i, x := range sn.entries {
			if x.Key == e.Key && x.PrefixLen == e.PrefixLen && x.Lo == e.Lo &&
				x.Hi == e.Hi && x.Mask == e.Mask && x.Priority == e.Priority {
				sn.entries = append(sn.entries[:i], sn.entries[i+1:]...)
				removed = x
				return nil, x
			}
		}
		return nil, nil
	})
	return removed != nil
}

// UpdateAction atomically replaces the action of the entry matching key
// (exact tables only) and reports whether the entry existed. The entry is
// replaced by a clone carrying the new action, and retired.
func (t *Table) UpdateAction(key uint64, a Action) bool {
	return t.editExact(key, func(cur *Entry) *Entry {
		if cur == nil {
			return nil
		}
		c := cur.clone()
		c.Action = a
		return c
	}) != nil
}

// Lookup finds the highest-priority matching entry for key, or the default
// entry, or nil. It takes no locks and writes nothing: it reads the snapshot
// pointer and probes the exact index or walks the entries.
func (t *Table) Lookup(key uint64) *Entry {
	e, _ := t.LookupMatch(key)
	return e
}

// LookupMatch is Lookup that also reports whether e is an installed entry
// that matched key rather than the default (or nil), judged from the one
// snapshot the lookup read: comparing e with Default afterwards loads the
// snapshot again and can misjudge across a concurrent SetDefault.
func (t *Table) LookupMatch(key uint64) (e *Entry, matched bool) {
	sn := t.snap.Load()
	var hit *Entry
	if t.Kind == MatchExact {
		_, hit = probeExact(sn.exact, key)
	} else {
		hit = t.scan(sn, key)
	}
	if hit == nil {
		return sn.deflt, false
	}
	return hit, true
}

// scan is the linear match walk for non-exact tables.
func (t *Table) scan(sn *tableSnap, key uint64) *Entry {
	switch t.Kind {
	case MatchPrefix:
		for _, e := range sn.entries {
			if prefixMatch(key, e.Key, e.PrefixLen) {
				return e
			}
		}
	case MatchRange:
		for _, e := range sn.entries {
			if key >= e.Lo && key <= e.Hi {
				return e
			}
		}
	case MatchTernary:
		for _, e := range sn.entries {
			if key&e.Mask == e.Key&e.Mask {
				return e
			}
		}
	}
	return nil
}

// Probe returns the exact-match entry for key, never the default entry. The
// control plane uses it to capture the row an Insert is about to displace, so
// a transaction rollback can restore that same entry. Non-exact tables always
// report nil.
func (t *Table) Probe(key uint64) *Entry {
	if t.Kind != MatchExact {
		return nil
	}
	_, e := probeExact(t.snap.Load().exact, key)
	return e
}

func prefixMatch(key, val uint64, plen uint8) bool {
	if plen == 0 {
		return true
	}
	if plen >= 64 {
		return key == val
	}
	shift := 64 - uint(plen)
	return key>>shift == val>>shift
}

// Len reports the number of installed entries (excluding the default).
func (t *Table) Len() int {
	if t.Kind == MatchExact {
		return int(t.exactLen.Load())
	}
	return len(t.snap.Load().entries)
}

// Entries returns a snapshot of the installed entries; an exact table's are
// sorted by key.
func (t *Table) Entries() []*Entry {
	if t.Kind == MatchExact {
		// Single-key edits store into the index in place, so the walk holds
		// the mutex every writer holds: it reads one state of the table.
		t.mu.Lock()
		out := make([]*Entry, 0, t.exactLen.Load())
		t.snap.Load().exact.walk(func(e *Entry) { out = append(out, e) })
		t.mu.Unlock()
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	return append([]*Entry(nil), t.snap.Load().entries...)
}

// Default returns the default entry, or nil.
func (t *Table) Default() *Entry {
	return t.snap.Load().deflt
}
