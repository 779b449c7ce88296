package core

import (
	"fmt"
	"maps"
	"strings"
	"sync"

	"rmtk/internal/fault"
	"rmtk/internal/table"
)

// This file implements the sharded, lock-free hot path: the kernel's
// registries are mirrored into an immutable routes snapshot behind an atomic
// pointer, rebuilt by every control-plane mutation, so Fire never takes the
// kernel lock — and linked, not just copied: what a fire would look up per
// event (a program's breaker, health, purity and tier; a model's width; a
// hook's baseline and cacheability) is resolved once, at publish. A datapath
// generation counter is bumped after each snapshot publish (and after every
// table mutation); the per-(hook,args) verdict cache keys memoized fire
// outcomes by that generation, so any table/model/program swap invalidates
// them lazily.
//
// Lifetime: bindings live and die with one snapshot. A cachedFire holds a
// *progBinding but is keyed by generation, which moves after every publish, so
// a stale binding never replays. What a binding points at outlives it: breaker
// identity is per (supervisor, program id), health identity per content hash.

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

// hookRoute is the resolved pipeline of one hook.
type hookRoute struct {
	id     uint64 // interned hook id, stable across rebuilds (FlowKey.Hook)
	tables []*table.Table
	shadow *Shadow
	// cacheable: the verdict cache is on and nothing non-replayable is attached
	// (an injector's scheduled faults must strike, a shadow must observe real
	// runs). Entry replayability is a per-fire fact: inserts bump the
	// generation without republishing.
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
	// (ModeAOT without a registered native function prefers the JIT).
	pref EngineTier
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
	helpers map[int64]helper
	vecs    map[int64]*vecSlot
	inj     *fault.Injector
	// sentinel carries the engine sentinel into the hot path; the per-
	// program health records it consults are bound in progs.
	sentinel *Sentinel
}

// prog resolves a program id against the snapshot (nil when absent).
func (rt *routes) prog(id int64) *progBinding {
	if uint64(id) < uint64(len(rt.progs)) && rt.progs[id].progEntry != nil {
		return &rt.progs[id]
	}
	return nil
}

// model resolves a model id against the snapshot (nil when absent).
func (rt *routes) model(id int64) *modelBinding {
	if uint64(id) < uint64(len(rt.models)) && rt.models[id].Model != nil {
		return &rt.models[id]
	}
	return nil
}

// rebuildRoutesLocked republishes every tenant's route snapshot from the
// registries — the global-mutation path (mode, injector, helpers, fallbacks,
// supervisor, shadows, default-owned resources: all of them visible to every
// tenant). Caller holds k.mu.
func (k *Kernel) rebuildRoutesLocked() {
	k.publishTenantLocked(k.def)
	for _, ts := range k.tenants {
		k.publishTenantLocked(ts)
	}
}

// rebuildOwnedLocked republishes only the snapshots a mutation of an
// owner-scoped resource can change: the default (admin) view always, plus the
// owning tenant's. Default-owned resources are visible to every tenant, so
// owner == "" escalates to a full rebuild. This scoping is the tenant
// isolation of the verdict cache: tenant A's table/program/model churn leaves
// tenant B's generation — and therefore B's cached verdicts — untouched.
// Caller holds k.mu.
func (k *Kernel) rebuildOwnedLocked(owner string) {
	if owner == "" {
		k.rebuildRoutesLocked()
		return
	}
	k.publishTenantLocked(k.def)
	if ts, ok := k.tenants[owner]; ok {
		k.publishTenantLocked(ts)
	}
}

// publishTenantLocked stores one tenant's immutable route snapshot, then bumps
// its generation — in that order, mirroring the table layer's publish: a
// reader that loads generation g sees a snapshot at least as new as g's, so a
// verdict computed against an older snapshot can only be cached under an
// older generation. The default tenant sees every resource under its full
// name. A tenant sees its own hooks under their plain (prefix-stripped) names
// — so fallback patterns and supervisor metrics are tenant-relative — and its
// own plus default-owned tables, programs and models. Caller holds k.mu.
func (k *Kernel) publishTenantLocked(ts *tenantState) {
	def := ts == k.def
	visible := func(owner string) bool { return def || owner == "" || owner == ts.name }
	rt := &routes{
		hooks:    make(map[string]*hookRoute, len(k.hooks)),
		tables:   make(map[int64]*table.Table, len(k.tables)),
		progs:    make([]progBinding, k.nextProg+1),
		models:   make([]modelBinding, k.nextModel+1),
		mats:     maps.Clone(k.mats),
		helpers:  maps.Clone(k.helpers),
		vecs:     maps.Clone(k.vecs),
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
		hr := &hookRoute{id: k.hookIDs[hook], shadow: k.shadows[hook], fallback: resolveFallback(k.fallbacks, key)}
		hr.cacheable = ts.vcache != nil && k.inj == nil && hr.shadow == nil
		for _, tid := range ids {
			// Visibility here is defense in depth: chargeTableLocked already
			// rejects tables whose hook lives in a foreign namespace, so a
			// pipeline only ever carries its own tenant's tables.
			if t, ok := k.tables[tid]; ok && visible(tenantOf(t.Name)) {
				hr.tables = append(hr.tables, t)
			}
		}
		rt.hooks[key] = hr
	}
	for id, p := range k.progs {
		if !visible(tenantOf(p.prog.Name)) {
			continue
		}
		pb := progBinding{progEntry: p, pure: p.prog.Pure, pref: modeTier(k.cfg.Mode)}
		if pb.pref == TierAOT && p.aot == nil {
			pb.pref = TierJIT
		}
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
}

// bumpGenFor invalidates the cached verdicts a table mutation can affect: the
// owning tenant's (when the table is tenant-owned) or every tenant's (a
// default-owned table is readable from any tenant's programs), always
// including the admin view. It is the tables' onMutate hook, so entry
// inserts/deletes/rewrites flow into the datapath generations even though
// they do not republish route snapshots.
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

// Generation reports the default tenant's datapath generation: it advances on
// every control-plane mutation (table entries, models, programs, matrices,
// mode, shadows, supervisor) and is the validity token of the verdict cache.
// Per-tenant generations are reported by TenantGeneration.
func (k *Kernel) Generation() uint64 { return k.def.gen.Load() }

// cachedRow replays one table lookup's counter effects: the table that was
// consulted and the entry the scan matched (nil when the scan missed and the
// default action, if any, applied).
type cachedRow struct {
	t   *table.Table
	hit *table.Entry
}

// cachedFire is one memoized fire outcome for a pure pipeline.
type cachedFire struct {
	rows    []cachedRow
	matched int
	verdict int64
	steps   int64
	infers  int64
	prog    *progBinding // the one program the pipeline ran, or nil
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

func (r *fireRec) addRow(t *table.Table, hit *table.Entry) {
	if !r.ok {
		return
	}
	if r.nrows == maxRecordRows {
		r.ok = false
		return
	}
	r.rows[r.nrows] = cachedRow{t: t, hit: hit}
	r.nrows++
}

// VerdictCacheStats reports the default tenant's verdict-cache
// hit/miss/invalidation/declined counters (TenantVerdictCacheStats for
// tenants').
func (k *Kernel) VerdictCacheStats() table.FlowCacheStats {
	return k.def.vcache.Stats()
}

// hotStatLines renders the lazily-aggregated hot-path metrics for the
// telemetry registry snapshot: the sharded fire counters, the verdict cache,
// and the per-table scan memos.
func (k *Kernel) hotStatLines() []string {
	out := []string{
		fmt.Sprintf("core.fires %d", k.ctrFires.Load()),
		fmt.Sprintf("core.collects %d", k.ctrCollects.Load()),
		fmt.Sprintf("core.inferences %d", k.ctrInfers.Load()),
		k.histSteps.SnapshotLine("core.program_steps"),
	}
	vs := k.def.vcache.Stats()
	for _, ts := range *k.tdir.Load() {
		tvs := ts.vcache.Stats()
		vs.Hits += tvs.Hits
		vs.Misses += tvs.Misses
		vs.Invalidations += tvs.Invalidations
		vs.Evictions += tvs.Evictions
		vs.Declined += tvs.Declined
	}
	out = append(out,
		fmt.Sprintf("core.verdict_cache.hits %d", vs.Hits),
		fmt.Sprintf("core.verdict_cache.misses %d", vs.Misses),
		fmt.Sprintf("core.verdict_cache.invalidations %d", vs.Invalidations),
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
	var ts table.FlowCacheStats
	for _, t := range rt.tables {
		s := t.CacheStats()
		ts.Hits += s.Hits
		ts.Misses += s.Misses
		ts.Invalidations += s.Invalidations
	}
	out = append(out,
		fmt.Sprintf("table.scan_memo.hits %d", ts.Hits),
		fmt.Sprintf("table.scan_memo.misses %d", ts.Misses),
		fmt.Sprintf("table.scan_memo.invalidations %d", ts.Invalidations),
	)
	return out
}
