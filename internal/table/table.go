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
// Reads are lock-free: the live entry set is an immutable snapshot behind an
// atomic pointer, and mutators publish a rebuilt snapshot (copy-on-write),
// then bump the table version, then retire the entries they took out of it
// (Entry.Live). Non-exact tables additionally memoize scan results per
// (version, key) in a flow cache, so recurring flow keys skip the linear
// prefix/range/ternary walk.
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
	// every rewrite (UpdateAction, RewriteActions) publishes a clone.
	Action Action

	hits atomic.Int64
	// retired is set once the entry has left its table's live snapshot; it
	// sits next to hits, on the cache line a replayed hit already writes.
	retired atomic.Bool
}

// Hits reports how many lookups this entry has matched.
func (e *Entry) Hits() int64 { return e.hits.Load() }

// Live reports whether the entry is in its table's live snapshot: false from
// the moment a mutator that replaced or removed it (UpdateAction, Insert over
// its exact key, Delete, RewriteActions, SetDefault for a default) has
// published, true again once it is re-inserted (a transaction rollback
// restores the displaced pointer). Since
// an exact-table lookup of key K returns the live entry for K, a verdict that
// matched e there is current exactly while e is live. An entry must belong to
// one table at a time.
func (e *Entry) Live() bool { return !e.retired.Load() }

// clone returns a live copy of the entry with a fresh hit counter carrying
// over the old count.
func (e *Entry) clone() *Entry {
	c := &Entry{
		Key: e.Key, PrefixLen: e.PrefixLen, Lo: e.Lo, Hi: e.Hi,
		Mask: e.Mask, Priority: e.Priority, Action: e.Action,
	}
	c.hits.Store(e.hits.Load())
	return c
}

// tableSnap is an immutable view of the entry set. Mutators build a new snap
// and publish it with one atomic pointer swap; Lookup never takes a lock.
// Entry pointers are shared between successive snaps (only replaced rows are
// cloned), so hit counters survive snapshot churn.
type tableSnap struct {
	exact   map[uint64]*Entry // written only through setExact and deleteExact
	entries []*Entry          // prefix/range/ternary entries, sorted by specificity
	deflt   *Entry            // optional default entry when nothing matches

	// touched lists the exact keys the mutation building this snapshot set or
	// deleted, so publish settles liveness without walking the whole map.
	touched []uint64
}

// setExact installs e at its key, noting the key for publish.
func (sn *tableSnap) setExact(e *Entry) {
	sn.exact[e.Key] = e
	sn.touched = append(sn.touched, e.Key)
}

// deleteExact removes key, noting it for publish.
func (sn *tableSnap) deleteExact(key uint64) {
	delete(sn.exact, key)
	sn.touched = append(sn.touched, key)
}

// statShards is the number of lookup/miss counter stripes. Striping the stats
// keeps concurrent Fires on different flow keys off a shared cache line.
const statShards = 16

// padCounter is a cache-line-padded counter stripe.
type padCounter struct {
	n atomic.Int64
	_ [56]byte
}

// scanResult is a memoized scan outcome for non-exact tables. hit == nil
// records a miss (the default entry, if any, is resolved at use time so that
// SetDefault does not need to invalidate).
type scanResult struct {
	hit *Entry
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

	memo *FlowCache[scanResult] // nil for exact tables

	lookups [statShards]padCounter
	misses  [statShards]padCounter
}

// New creates an empty table.
func New(name, hook string, kind MatchKind) *Table {
	t := &Table{Name: name, Hook: hook, Kind: kind}
	t.snap.Store(&tableSnap{exact: map[uint64]*Entry{}})
	if kind != MatchExact {
		t.memo = NewFlowCache[scanResult](8, 1024)
	}
	return t
}

// Version reports the table's mutation counter: every mutation bumps it. The
// scan memo keys its results by it, and a cached verdict stamps with it the
// rows whose answer any mutation can change — a miss, the default, a match in
// a prefix/range/ternary table. An exact-table match is stamped by its entry
// instead (Entry.Live), so an edit of one key leaves the others' verdicts.
func (t *Table) Version() uint64 { return t.version.Load() }

// SetOnMutate registers a callback invoked after every committed mutation
// (insert, delete, update, rewrite, default change). The kernel uses it to
// advance its datapath generation; cached verdicts that consulted the table
// notice the mutation by Version.
func (t *Table) SetOnMutate(fn func()) {
	if fn == nil {
		t.onMutate.Store(nil)
		return
	}
	t.onMutate.Store(&fn)
}

// publish installs sn, built from old, as the live snapshot, bumps the
// version, then settles entry liveness by comparing the two: every entry of
// old that sn no longer holds (a replaced or removed row, a replaced or
// cleared default) is retired, and every retired entry sn holds again (a
// transaction rollback re-inserting the displaced pointer) is revived. Of the
// exact map only the keys the mutation touched are compared; the walk of the
// whole map per mutation doubled the cost of filling a table. The order matters for the version: a
// reader that observes version v scans a snapshot at least as new as v's, so
// a stale scan can only be cached under a stale version. It matters for a
// revival too: a revived entry's cached verdicts replay only once lookups find
// the entry again. A retirement is safe on either side of the Store, since a
// fire only gets an entry out of a snapshot, and follows it to keep one order.
// Liveness is decided here, from the two snapshots, so no mutator has to
// report what it displaced; mutate is the only caller and holds t.mu, so
// retirements and revivals land in mutation order.
func (t *Table) publish(old, sn *tableSnap) {
	touched := sn.touched
	sn.touched = nil
	t.snap.Store(sn)
	t.version.Add(1)
	for _, k := range touched {
		if o, e := old.exact[k], sn.exact[k]; o != e {
			if o != nil {
				o.retired.Store(true)
			}
			if e != nil {
				revive(e)
			}
		}
	}
	if len(old.entries)+len(sn.entries) != 0 {
		held := make(map[*Entry]bool, len(sn.entries))
		for _, e := range sn.entries {
			held[e] = true
			revive(e)
		}
		for _, e := range old.entries {
			if !held[e] {
				e.retired.Store(true)
			}
		}
	}
	if old.deflt != nil && old.deflt != sn.deflt {
		old.deflt.retired.Store(true)
	}
	if sn.deflt != nil {
		revive(sn.deflt)
	}
	if fn := t.onMutate.Load(); fn != nil {
		(*fn)()
	}
}

// revive marks an entry the published snapshot holds live, writing the flag
// only when it was retired.
func revive(e *Entry) {
	if e.retired.Load() {
		e.retired.Store(false)
	}
}

// mutate clones the live snapshot shallowly (sharing entry pointers), applies
// fn to the clone, and publishes it.
func (t *Table) mutate(fn func(sn *tableSnap)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	sn := &tableSnap{
		exact:   make(map[uint64]*Entry, len(old.exact)),
		entries: append([]*Entry(nil), old.entries...),
		deflt:   old.deflt,
	}
	for k, e := range old.exact {
		sn.exact[k] = e
	}
	fn(sn)
	t.publish(old, sn)
}

// SetDefault installs the action used when no entry matches. Passing nil
// clears it. The default it replaces is retired.
func (t *Table) SetDefault(a *Action) {
	t.mutate(func(sn *tableSnap) {
		if a == nil {
			sn.deflt = nil
			return
		}
		sn.deflt = &Entry{Action: *a}
	})
}

// Insert adds an entry. For exact tables an existing entry with the same key
// is replaced (and retired). For other kinds the entry is added and ordering
// recomputed. Inserting a retired entry revives it.
func (t *Table) Insert(e *Entry) error {
	if err := t.validate(e); err != nil {
		return err
	}
	t.mutate(func(sn *tableSnap) {
		if t.Kind == MatchExact {
			sn.setExact(e)
			return
		}
		sn.entries = append(sn.entries, e)
		t.reorder(sn)
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
	removed := false
	t.mutate(func(sn *tableSnap) {
		if t.Kind == MatchExact {
			if _, ok := sn.exact[e.Key]; ok {
				sn.deleteExact(e.Key)
				removed = true
			}
			return
		}
		for i, x := range sn.entries {
			if x.Key == e.Key && x.PrefixLen == e.PrefixLen && x.Lo == e.Lo &&
				x.Hi == e.Hi && x.Mask == e.Mask && x.Priority == e.Priority {
				sn.entries = append(sn.entries[:i], sn.entries[i+1:]...)
				removed = true
				return
			}
		}
	})
	return removed
}

// UpdateAction atomically replaces the action of the entry matching key
// (exact tables only) and reports whether the entry existed. The entry is
// replaced by a clone carrying the new action, and retired.
func (t *Table) UpdateAction(key uint64, a Action) bool {
	updated := false
	t.mutate(func(sn *tableSnap) {
		e, ok := sn.exact[key]
		if !ok {
			return
		}
		c := e.clone()
		c.Action = a
		sn.setExact(c)
		updated = true
	})
	return updated
}

// RewriteActions applies fn to every entry's action (including the default
// entry, if set) in one atomic snapshot swap: fn returns the replacement
// action and whether to rewrite. Rewritten entries are cloned (hit counts
// carried over), so concurrent Lookup callers see either the whole old table
// or the whole new one, never a torn mix; the rewritten originals are retired.
// It returns the number of entries rewritten. This is the promotion primitive
// for program canaries: retargeting every ActionProgram entry from the
// incumbent to the promoted candidate is one atomic step, on any match kind.
func (t *Table) RewriteActions(fn func(Action) (Action, bool)) int {
	n := 0
	t.mutate(func(sn *tableSnap) {
		for _, e := range sn.exact {
			if a, ok := fn(e.Action); ok {
				c := e.clone()
				c.Action = a
				sn.setExact(c)
				n++
			}
		}
		for i, e := range sn.entries {
			if a, ok := fn(e.Action); ok {
				c := e.clone()
				c.Action = a
				sn.entries[i] = c
				n++
			}
		}
		if sn.deflt != nil {
			if a, ok := fn(sn.deflt.Action); ok {
				c := sn.deflt.clone()
				c.Action = a
				sn.deflt = c
				n++
			}
		}
	})
	return n
}

// stripe selects the stat counter stripe for a key (fibonacci hashing).
func stripe(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> 60)
}

// Lookup finds the highest-priority matching entry for key, or the default
// entry, or nil. The fast path takes no locks: it reads the snapshot pointer
// and, for scan-based tables, consults the per-version flow cache before
// falling back to the linear walk.
func (t *Table) Lookup(key uint64) *Entry {
	e, _ := t.LookupMatch(key)
	return e
}

// LookupMatch is Lookup that also reports whether e is an installed entry
// that matched key rather than the default (or nil), judged from the one
// snapshot the lookup read: comparing e with Default afterwards loads the
// snapshot again and can misjudge across a concurrent SetDefault.
func (t *Table) LookupMatch(key uint64) (e *Entry, matched bool) {
	t.lookups[stripe(key)].n.Add(1)
	// Load the version before the snapshot: a concurrent mutator publishes
	// snapshot-then-version, so the scan below can only be *newer* than ver,
	// and a result cached under ver is never stale for ver.
	ver := t.version.Load()
	sn := t.snap.Load()

	var hit *Entry
	switch t.Kind {
	case MatchExact:
		hit = sn.exact[key]
	default:
		// The memo books its own probes (FlowCache's booking rule).
		if r, ok := t.memo.Get(FlowKey{Key: key}, ver); ok {
			t.memo.Book(stripe(key), 1, 0, 0)
			hit = r.hit
		} else {
			t.memo.Book(stripe(key), 0, 1, 0)
			hit = t.scan(sn, key)
			t.memo.Put(FlowKey{Key: key}, ver, scanResult{hit: hit})
		}
	}
	if hit == nil {
		t.misses[stripe(key)].n.Add(1)
		return sn.deflt, false
	}
	hit.hits.Add(1)
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

// Probe returns the exact-match entry for key without touching any counters
// or the default entry. The control plane uses it to capture the row an
// Insert is about to displace, so a transaction rollback can restore it —
// hit count and all. Non-exact tables always report nil.
func (t *Table) Probe(key uint64) *Entry {
	if t.Kind != MatchExact {
		return nil
	}
	return t.snap.Load().exact[key]
}

// Credit replays the table-wide counter effects of lookups whose match walk
// was skipped — the kernel's verdict-cache replays tally them per call and
// credit them here once — so Stats stays exact: it counts lookups lookups, of
// which misses matched nothing, on the stripe lane selects (any value; it is
// masked). The entries the others matched are credited one by one
// (Entry.CountHit).
func (t *Table) Credit(lane int, lookups, misses int64) {
	st := lane & (statShards - 1)
	t.lookups[st].n.Add(lookups)
	if misses != 0 {
		t.misses[st].n.Add(misses)
	}
}

// CountHit credits the entry with one lookup it would have matched had the
// match walk run (Table.Credit carries the table-wide half).
func (e *Entry) CountHit() { e.hits.Add(1) }

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
	sn := t.snap.Load()
	if t.Kind == MatchExact {
		return len(sn.exact)
	}
	return len(sn.entries)
}

// Entries returns a snapshot of the installed entries.
func (t *Table) Entries() []*Entry {
	sn := t.snap.Load()
	if t.Kind == MatchExact {
		out := make([]*Entry, 0, len(sn.exact))
		for _, e := range sn.exact {
			out = append(out, e)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	return append([]*Entry(nil), sn.entries...)
}

// Default returns the default entry, or nil.
func (t *Table) Default() *Entry {
	return t.snap.Load().deflt
}

// Stats reports lookup/miss counters (summed over the counter stripes).
func (t *Table) Stats() (lookups, misses int64) {
	for i := 0; i < statShards; i++ {
		lookups += t.lookups[i].n.Load()
		misses += t.misses[i].n.Load()
	}
	return lookups, misses
}

// CacheStats reports the scan-memo flow cache counters. Exact tables have no
// memo (the map probe is already O(1)) and report zeros.
func (t *Table) CacheStats() FlowCacheStats {
	return t.memo.Stats()
}
