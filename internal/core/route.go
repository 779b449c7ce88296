package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"rmtk/internal/fault"
	"rmtk/internal/table"
)

// This file implements the sharded, lock-free hot path: the kernel's
// registries are mirrored into an immutable routes snapshot behind an atomic
// pointer, rebuilt by every control-plane mutation, so Fire never takes the
// kernel lock — and linked, not just copied: what a fire would look up per
// event (a program's breaker, health, purity and tier; a model's width; a
// hook's baseline and cacheability) is resolved once, at publish.
//
// The per-(hook,args) verdict cache memoizes fire outcomes under a stamp of
// exactly what the fire read — the tenant's flush counter, the hook route's
// epoch, per table consulted either the entry an exact table matched or the
// table's version, the model dependency count of the program run — and a
// replay compares it component by component (cachedFire.check), so a commit
// invalidates the verdicts that could have read what it changed and no
// others: an insert into another hook's table, a new program, a push of a
// model no cached program declares, an edit of another key of an exact table
// leave them alone. Every writer publishes before it advances its component
// (a table retires an entry after publishing the snapshot without it) and
// every fire loads the component before what it stamps (an exact match is
// stamped by the entry the lookup returned), so a stamp can go stale, never
// wrong. The datapath generation still advances on every mutation; it is
// reporting (Generation), no longer the cache's token.
//
// Lifetime: bindings live and die with one snapshot, and nothing cached
// points into one — a cachedFire names its program by id and resolves it in
// the snapshot of the fire that replays it. What a binding points at outlives
// it: breaker identity is per (supervisor, program id), health identity per
// content hash.

// coreShards is the number of hot-path stripes for counters, step accounting
// and the verdict cache. Power of two; fires are striped by flow-key hash so
// concurrent fires on different keys touch different cache lines.
const coreShards = 32

// shardIndex maps a flow key to its stripe (fibonacci hashing).
func shardIndex(key int64) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> 59)
}

// vecSlot is one pool vector with its own lock, so staging per-event feature
// vectors (SetVec) never touches the kernel lock or the route snapshot.
type vecSlot struct {
	mu sync.RWMutex
	v  []int64
}

// store overwrites the vector, reallocating only when the length changes.
func (s *vecSlot) store(src []int64) {
	s.mu.Lock()
	if len(s.v) != len(src) {
		s.v = append([]int64(nil), src...)
	} else {
		copy(s.v, src)
	}
	s.mu.Unlock()
}

// hookRoute is the resolved pipeline of one hook.
type hookRoute struct {
	id   uint64 // interned hook id, stable across rebuilds (FlowKey.Hook)
	name string // the name the snapshot routes it under (routes.hook)
	// epoch is unique to this object (k.nextEpoch) and part of every verdict
	// stamp. A publish that only adds a resource or swaps a model carries the
	// object over when tables, shadow and cacheable are unchanged; any other
	// publish, and any edit of the pipeline, makes a new one.
	epoch  uint64
	tables []*table.Table
	shadow *Shadow
	// cacheable: the verdict cache is on and nothing non-replayable is attached
	// (an injector's scheduled faults must strike, a shadow must observe real
	// runs). Entry replayability is a per-fire fact: inserts do not republish.
	cacheable bool
	// fallback is the hook's baseline (exact pattern, then longest prefix, on
	// the tenant-relative name); nil when none matches.
	fallback Fallback
}

// progBinding is one program as one snapshot sees it.
type progBinding struct {
	*progEntry
	brk    *breaker      // this tenant's supervisor's; nil when unsupervised
	health *engineHealth // by content hash; nil without a sentinel
	pure   bool
	// pref is the tier the configuration selects absent any health demotion
	// (TierAOT without a registered native function prefers the JIT).
	pref EngineTier
	// dep is progEntry.modelSwaps as of this publish: the one mutable input of
	// a pure program (no tail calls, helpers, context or pool-vector reads —
	// verifier.pureOp — and matrices are write-once) is the models it declares.
	dep uint64
}

// modelBinding is one model with the width ActionInfer sizes its window by.
type modelBinding struct {
	Model
	nfeat int
}

// routes is the immutable hot-path view of the kernel registries. Fire loads
// it once (per call or per batch) and never looks at the mutable maps.
type routes struct {
	hooks  map[string]*hookRoute
	tables map[int64]*table.Table
	// progs and models are indexed by id (ids are dense: k.nextProg,
	// k.nextModel); a nil progEntry / Model marks an id this tenant cannot see.
	progs   []progBinding
	models  []modelBinding
	mats    map[int64]*Matrix
	helpers map[int64]*helper
	vecs    map[int64]*vecSlot
	inj     *fault.Injector
	// sentinel carries the engine sentinel into the hot path; the per-
	// program health records it consults are bound in progs.
	sentinel *Sentinel
	// recent holds the two hooks hook resolved last, most recent first.
	recent [2]atomic.Pointer[hookRoute]
}

// withEntry returns a copy of m with m[k] = v: the registries that route
// snapshots share are never written in place.
func withEntry[V any](m map[int64]V, k int64, v V) map[int64]V {
	m = maps.Clone(m)
	if m == nil {
		m = make(map[int64]V, 1)
	}
	m[k] = v
	return m
}

// prog resolves a program id against the snapshot (nil when absent).
func (rt *routes) prog(id int64) *progBinding {
	if uint64(id) < uint64(len(rt.progs)) && rt.progs[id].progEntry != nil {
		return &rt.progs[id]
	}
	return nil
}

// hook resolves a hook name against the snapshot (nil when absent), through
// the two hooks it resolved last before the map: a Table-1 access fires the
// collect and the prefetch hook, one batch of two per access, so a memo of
// one hook, or one kept per call, would miss on every event.
func (rt *routes) hook(name string) *hookRoute {
	if hr := rt.recent[0].Load(); hr != nil && hr.name == name {
		return hr
	}
	if hr := rt.recent[1].Load(); hr != nil && hr.name == name {
		return hr
	}
	hr := rt.hooks[name]
	if hr != nil {
		rt.recent[1].Store(rt.recent[0].Load())
		rt.recent[0].Store(hr)
	}
	return hr
}

// model resolves a model id against the snapshot (nil when absent).
func (rt *routes) model(id int64) *modelBinding {
	if uint64(id) < uint64(len(rt.models)) && rt.models[id].Model != nil {
		return &rt.models[id]
	}
	return nil
}

// rebuildRoutesLocked republishes every tenant's route snapshot from the
// registries and flushes every verdict cache — the global-mutation path
// (mode, injector, helpers, fallbacks, supervisor, sentinel, shadows, tenant
// removal: all of them change what any fire may do). Caller holds k.mu.
func (k *Kernel) rebuildRoutesLocked() { k.publishOwnedLocked("", false) }

// rebuildOwnedLocked republishes, and flushes, only the snapshots a mutation
// of an owner-scoped resource can change (publishOwnedLocked): the removal of
// a table or program, or a restore. Caller holds k.mu.
func (k *Kernel) rebuildOwnedLocked(owner string) { k.publishOwnedLocked(owner, false) }

// extendOwnedLocked republishes after a mutation that only added a resource
// or swapped a model (CreateTable, RegisterModel*, RegisterMatrix,
// RegisterVec, InstallProgram, SwapModel). Nothing is flushed: a hook whose
// pipeline the addition did not touch keeps its route object, and the verdicts
// cached under it survive unless their own stamp says otherwise (a swapped
// model moves the dep of the programs declaring it). Caller holds k.mu.
func (k *Kernel) extendOwnedLocked(owner string) { k.publishOwnedLocked(owner, true) }

// publishOwnedLocked republishes the snapshots that can see a resource of
// owner: the default (admin) view always, plus the owning tenant's, or every
// tenant's when owner is "" (default-owned resources are visible to all). This
// scoping is the tenant isolation of the verdict cache: tenant A's
// table/program/model churn never republishes tenant B. Caller holds k.mu.
func (k *Kernel) publishOwnedLocked(owner string, keep bool) {
	k.publishTenantLocked(k.def, keep)
	if owner == "" {
		for _, ts := range k.tenants {
			k.publishTenantLocked(ts, keep)
		}
	} else if ts, ok := k.tenants[owner]; ok {
		k.publishTenantLocked(ts, keep)
	}
}

// samePipeline reports whether two routes of one hook would dispatch alike:
// the same tables in the same order, the same shadow, the same cacheability.
// (id never changes; fallback changes only through a flushing publish.)
func (hr *hookRoute) samePipeline(o *hookRoute) bool {
	return hr.shadow == o.shadow && hr.cacheable == o.cacheable && slices.Equal(hr.tables, o.tables)
}

// publishTenantLocked stores one tenant's immutable route snapshot, then
// advances its generation and — unless keep — its flush counter, in that
// order, mirroring the table layer's publish: a fire that loads flush count f
// sees a snapshot at least as new as f's, so a verdict computed against an
// older snapshot can only be cached under an older count. With keep, a hook
// whose pipeline is unchanged carries its previous route object, epoch and
// all, into the new snapshot. The default tenant sees every resource under
// its full name. A tenant sees its own hooks under their plain
// (prefix-stripped) names — so fallback patterns and supervisor metrics are
// tenant-relative — and its own plus default-owned tables, programs and
// models. Caller holds k.mu.
func (k *Kernel) publishTenantLocked(ts *tenantState, keep bool) {
	def := ts == k.def
	visible := func(owner string) bool { return def || owner == "" || owner == ts.name }
	var kept map[string]*hookRoute // the previous routes a keep publish may carry over
	if prev := ts.route.Load(); keep && prev != nil {
		kept = prev.hooks
	}
	rt := &routes{
		hooks:    make(map[string]*hookRoute, len(k.hooks)),
		tables:   make(map[int64]*table.Table, len(k.tables)),
		progs:    make([]progBinding, k.nextProg+1),
		models:   make([]modelBinding, k.nextModel+1),
		mats:     k.mats, // copy-on-write: shared until the next registration
		helpers:  k.helpers,
		vecs:     k.vecs,
		inj:      k.inj,
		sentinel: k.sentinel,
	}
	for id, t := range k.tables {
		if visible(tenantOf(t.Name)) {
			rt.tables[id] = t
		}
	}
	prefix := ts.name + nameSep
	for hook, ids := range k.hooks {
		key := hook
		if !def {
			if !strings.HasPrefix(hook, prefix) {
				continue // tenants route only their own hooks
			}
			key = hook[len(prefix):]
		}
		hr := &hookRoute{id: k.hookIDs[hook], name: key, shadow: k.shadows[hook]}
		hr.cacheable = ts.vcache != nil && k.inj == nil && hr.shadow == nil
		for _, tid := range ids {
			// Visibility here is defense in depth: chargeTableLocked already
			// rejects tables whose hook lives in a foreign namespace, so a
			// pipeline only ever carries its own tenant's tables.
			if t, ok := k.tables[tid]; ok && visible(tenantOf(t.Name)) {
				hr.tables = append(hr.tables, t)
			}
		}
		if old := kept[key]; old != nil && old.samePipeline(hr) {
			hr = old
		} else {
			k.nextEpoch++
			hr.epoch = k.nextEpoch
			hr.fallback = resolveFallback(k.fallbacks, key)
		}
		rt.hooks[key] = hr
	}
	for id, p := range k.progs {
		if !visible(tenantOf(p.prog.Name)) {
			continue
		}
		pb := progBinding{progEntry: p, pure: p.prog.Pure, pref: min(k.cfg.Mode, p.maxTier()), dep: p.modelSwaps}
		if ts.sup != nil {
			pb.brk = ts.sup.bind(id)
		}
		if k.sentinel != nil {
			pb.health = k.sentinel.healthFor(p)
		}
		rt.progs[id] = pb
	}
	for id, m := range k.models {
		if visible(k.modelOwner[id]) {
			rt.models[id] = modelBinding{Model: m, nfeat: m.NumFeatures()}
		}
	}
	ts.route.Store(rt)
	ts.gen.Add(1)
	if !keep {
		ts.flush.Add(1)
	}
}

// bumpGenFor advances the generations a table mutation is visible under: the
// owning tenant's (when the table is tenant-owned) or every tenant's (a
// default-owned table is readable from any tenant's programs), always
// including the admin view. It is the tables' onMutate hook, so entry
// inserts/deletes/rewrites show in the datapath generations even though they
// do not republish route snapshots. Cached verdicts that consulted the table
// die by its version or their matched entry's retirement, not by this.
func (k *Kernel) bumpGenFor(owner string) {
	k.def.gen.Add(1)
	dir := k.tdir.Load() // stored by NewKernel, never nil
	if owner == "" {
		for _, ts := range *dir {
			ts.gen.Add(1)
		}
		return
	}
	if ts, ok := (*dir)[owner]; ok {
		ts.gen.Add(1)
	}
}

// flushVerdicts voids every cached verdict of every tenant without
// republishing: the sentinel's incidents call it from the firing goroutine,
// without k.mu, which is why this stamp component is a live counter the fire
// loads before its route rather than a field of the snapshot.
func (k *Kernel) flushVerdicts() {
	k.def.flush.Add(1)
	for _, ts := range *k.tdir.Load() {
		ts.flush.Add(1)
	}
	k.bumpGenFor("")
}

// Generation reports the default tenant's datapath generation: it advances on
// every control-plane mutation (table entries, models, programs, matrices,
// mode, shadows, supervisor). It orders what an observer saw against what was
// committed; cached verdicts are validated by their own stamp
// (cachedFire.check), so a generation step does not by itself cost a cache
// miss.
func (k *Kernel) Generation() uint64 { return k.def.gen.Load() }

// cachedRow is the stamp of one table lookup. An exact table's match is
// stamped by its entry (hit), whose answer depends on that key's entry alone,
// so the row is current while the entry is live. Any other outcome — a miss,
// the default, a prefix/range/ternary match — is stamped by the table (t) and
// the version read before the lookup (ver), since any insert or default
// change can move it.
type cachedRow struct {
	t   *table.Table
	hit *table.Entry // nil: stamped by t's version
	ver uint64
}

// cachedFire is one memoized fire outcome for a pure pipeline, with the stamp
// of what it read: the hook route's epoch, an entry or a version per consulted
// table (rows) and the model dependency count of the one program it ran. The
// flush count it was computed under is the generation the FlowCache stores it
// by.
type cachedFire struct {
	rows    []cachedRow
	matched int
	verdict int64
	steps   int64
	infers  int64
	epoch   uint64
	progID  int64 // the one program the pipeline ran; 0 (never an id) for none
	dep     uint64
}

// Why check turned a stored fire away (indices of tenantState.rejected), or
// fresh when it did not.
const (
	fresh = iota - 1
	staleHook
	staleTable
	staleModel
	staleKinds
)

// check compares cf's stamp with what a fire through hr under rt reads now,
// component by component, and resolves its program in rt — the replaying
// fire's own snapshot, so a batch that loaded rt before a model swap keeps
// replaying, and recording, under the dep rt carries. It returns fresh, or
// the first component that had moved; a program rt no longer holds counts as
// a moved model.
func (cf *cachedFire) check(rt *routes, hr *hookRoute) (*progBinding, int) {
	if cf.epoch != hr.epoch {
		return nil, staleHook
	}
	for i := range cf.rows {
		r := &cf.rows[i]
		if r.hit != nil {
			if !r.hit.Live() {
				return nil, staleTable
			}
		} else if r.t.Version() != r.ver {
			return nil, staleTable
		}
	}
	if cf.progID == 0 {
		return nil, fresh
	}
	pb := rt.prog(cf.progID)
	if pb == nil || pb.dep != cf.dep {
		return nil, staleModel
	}
	return pb, fresh
}

// maxRecordRows bounds the per-fire row recorder; pipelines longer than this
// are simply not cached.
const maxRecordRows = 4

// fireRec accumulates cacheability evidence during one slow-path fire.
type fireRec struct {
	ok    bool         // still eligible for caching
	prog  *progBinding // the last program action run (a second one clears ok)
	nrows int
	rows  [maxRecordRows]cachedRow
}

// addRow records the stamp of a lookup of t that read version ver and
// matched hit (nil: no entry matched).
func (r *fireRec) addRow(t *table.Table, hit *table.Entry, ver uint64) {
	if !r.ok {
		return
	}
	if r.nrows == maxRecordRows {
		r.ok = false
		return
	}
	if t.Kind != table.MatchExact {
		hit = nil
	}
	r.rows[r.nrows] = cachedRow{t: t, hit: hit, ver: ver}
	r.nrows++
}

// StaleCounts splits a verdict cache's invalidations by the stamp component
// that had moved when the entry was probed: Flush (a publish other than a
// resource addition, or a sentinel incident), Hook (the pipeline was edited),
// Table (an exact-table entry the fire matched was replaced or removed, or a
// table stamped by version — a miss or default row, any prefix, range or
// ternary match — changed), Model (a model the program declares was swapped,
// or the program is gone). They sum to FlowCacheStats.Invalidations.
type StaleCounts struct {
	Flush, Hook, Table, Model int64
}

func (a *StaleCounts) add(b StaleCounts) {
	a.Flush += b.Flush
	a.Hook += b.Hook
	a.Table += b.Table
	a.Model += b.Model
}

// cacheStats reports the tenant's verdict-cache counters and their split.
func (ts *tenantState) cacheStats() (table.FlowCacheStats, StaleCounts) {
	// The rejections first, the total after: fire rejects (which counts in
	// the total) before it books the reason, so Flush cannot read negative.
	sc := StaleCounts{
		Hook:  ts.rejected[staleHook].Load(),
		Table: ts.rejected[staleTable].Load(),
		Model: ts.rejected[staleModel].Load(),
	}
	st := ts.vcache.Stats()
	sc.Flush = st.Invalidations - sc.Hook - sc.Table - sc.Model
	return st, sc
}

// VerdictCacheStats reports the default tenant's verdict-cache
// hit/miss/invalidation/declined counters.
func (k *Kernel) VerdictCacheStats() table.FlowCacheStats {
	return k.def.vcache.Stats()
}

// hotStatLines renders the lazily-aggregated hot-path metrics for the
// telemetry registry snapshot: the sharded fire counters and the verdict
// cache.
func (k *Kernel) hotStatLines() []string {
	out := []string{
		fmt.Sprintf("core.fires %d", k.ctrFires.Load()),
		fmt.Sprintf("core.collects %d", k.ctrCollects.Load()),
		fmt.Sprintf("core.inferences %d", k.ctrInfers.Load()),
		k.histSteps.SnapshotLine("core.program_steps"),
	}
	vs, why := k.def.cacheStats()
	for _, ts := range *k.tdir.Load() {
		tvs, twhy := ts.cacheStats()
		vs.Hits += tvs.Hits
		vs.Misses += tvs.Misses
		vs.Invalidations += tvs.Invalidations
		vs.Evictions += tvs.Evictions
		vs.Declined += tvs.Declined
		why.add(twhy)
	}
	out = append(out,
		fmt.Sprintf("core.verdict_cache.hits %d", vs.Hits),
		fmt.Sprintf("core.verdict_cache.misses %d", vs.Misses),
		fmt.Sprintf("core.verdict_cache.invalidations %d", vs.Invalidations),
		fmt.Sprintf("core.verdict_cache.invalidations.flush %d", why.Flush),
		fmt.Sprintf("core.verdict_cache.invalidations.hook %d", why.Hook),
		fmt.Sprintf("core.verdict_cache.invalidations.table %d", why.Table),
		fmt.Sprintf("core.verdict_cache.invalidations.model %d", why.Model),
		fmt.Sprintf("core.verdict_cache.evictions %d", vs.Evictions),
		fmt.Sprintf("core.verdict_cache.declined %d", vs.Declined),
	)
	for tier, c := range k.ctrTierFires {
		out = append(out, fmt.Sprintf("core.engine_fires.%s %d", EngineTier(tier), c.Load()))
	}
	rt := k.def.route.Load()
	if rt.sentinel != nil {
		out = append(out, rt.sentinel.statLines()...)
	}
	return out
}
