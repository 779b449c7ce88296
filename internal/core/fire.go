package core

import (
	"errors"
	"fmt"

	"rmtk/internal/aot"
	"rmtk/internal/fault"
	"rmtk/internal/table"
	"rmtk/internal/vm"
)

// Invocation carries per-Fire state: the hook arguments, the emission buffer
// helpers append to (e.g. pages to prefetch), and the rate-limit budget the
// verifier-mandated guardrail enforces.
type Invocation struct {
	Hook string
	Key  int64
	Arg2 int64
	Arg3 int64

	emissions  []int64
	emitBudget int
	rateHits   int64
	inferences int64 // OpMLInfer/ActionInfer count, flushed to the shard stats

	// injectHelperErr, when non-nil, is consumed by the next helper call
	// (fault.KindHelperError).
	injectHelperErr error

	// fallback is the hook's resolved baseline (hookRoute.fallback).
	fallback Fallback
	// feats is ActionInfer's history window; it stays with the pooled
	// scratch across fires.
	feats []int64
	// env is the env of the run calling a helper, set by env.Call, so a
	// helper reads the context through the run's record memo.
	env *env
}

// FireResult reports the outcome of one hook dispatch.
type FireResult struct {
	// Matched is how many tables had a matching entry.
	Matched int
	// Verdict is the last action's result value (program R0, model
	// prediction, or parameter), or DefaultVerdict when nothing decided.
	Verdict int64
	// Emissions are values emitted by helper calls (e.g. prefetch pages).
	Emissions []int64
	// RateLimited counts emissions dropped by the guardrail.
	RateLimited int64
	// Trapped reports whether a program aborted on a runtime trap (the
	// verdict then reflects prior actions or the default).
	Trapped bool
	// TrapErr is the trap error for diagnostics (programs failing soft do
	// not propagate errors into the datapath).
	TrapErr error
	// FellBack reports that the supervisor quarantined the matched program
	// and a registered baseline fallback produced the verdict/emissions.
	FellBack bool
	// Steps is the total VM steps executed by program actions on this fire
	// (zero for pure infer/param dispatches). Shadow runs never add to it.
	Steps int64
	// DelayNs is synchronous stall injected by the fault framework on this
	// fire; virtual-clock simulators charge it to their clocks (real hooks
	// would simply have stalled).
	DelayNs int64
	// CacheHit reports that the verdict was replayed from the verdict cache
	// (the pipeline was memoized for these arguments and nothing it read has
	// changed since). A new flow's first two replayable fires miss — one
	// leaves a fingerprint, the next stores — and the third replays.
	CacheHit bool
}

// DefaultVerdict is returned when no table matched or no action produced a
// value: the kernel's built-in behaviour applies.
const DefaultVerdict = int64(-1)

// dispatch is the record one Fire, FireBatch, FireTenant, FireQueue.Drain or
// RunProgramByName call threads through the pipeline: whose datapath it runs
// (tenant state, route snapshot, the flush count loaded before it), the one
// pooled scratch it works in, the books it keeps and the hook it resolved
// last. It lives on the caller's stack, and the scratch is drawn by the first
// event that leaves the cached-hit path — a fully cached dispatch draws and
// allocates nothing — then reused by every later event, engine run, checked
// pair and shadow run of the call; release returns it.
type dispatch struct {
	k     *Kernel
	ts    *tenantState
	rt    *routes
	flush uint64
	s     *scratch
	b     books
	// hook and hr memoize rt.hook(hook) for the last hook fired, so a run of
	// same-hook events resolves its hook once; begin clears the memo.
	hook string
	hr   *hookRoute
}

// books tally what a dispatch's events count — the striped kernel counters,
// the tenant's verdict-cache outcomes, the step histogram run-length by value —
// for settle to publish once per call and before begin points the record at
// another tenant.
type books struct {
	lane                   int // the stripe settle publishes on: the last event's
	fires, infers          int64
	tiers                  [TierAOT + 1]int64
	hits, misses, declined int64 // of d.ts's verdict cache
	stepV, stepN           int64 // the current run: stepN programs ran stepV steps
}

// steps books one program run's step count.
func (d *dispatch) steps(n int64) {
	b := &d.b
	if b.stepV != n {
		d.k.histSteps.ObserveN(b.lane, b.stepV, b.stepN)
		b.stepV, b.stepN = n, 0
	}
	b.stepN++
}

// settle publishes the books and clears them (there are none before begin).
func (d *dispatch) settle() {
	if d.ts == nil {
		return
	}
	k, b := d.k, &d.b
	k.ctrFires.Add(b.lane, b.fires)
	k.ctrInfers.Add(b.lane, b.infers)
	for tier, n := range b.tiers {
		k.ctrTierFires[tier].Add(b.lane, n)
	}
	k.histSteps.ObserveN(b.lane, b.stepV, b.stepN)
	d.ts.vcache.Book(b.lane, b.hits, b.misses, b.declined)
	*b = books{}
}

// scratch is everything a dispatch needs off the cached-hit path, pooled as
// one object (Kernel.pool) because all of it escapes: the env is handed to
// program code through the vm.Env interface and points at the invocation, and
// the JIT keeps its per-run record inside vm.State for the same reason. A
// firing goroutine runs one engine at a time, so the checked reference, the
// native run and a shadow run share the env, machine state and captures.
type scratch struct {
	// The event in flight (event stages it): invocation, cacheability evidence
	// and the injector's decision (slow's; nil between dispatches).
	inv Invocation
	rec fireRec
	out *fault.Outcome

	env env
	st  vm.State
	aot aot.Scratch

	// leases rides the scratch so a batch amortizes chunk claims and a
	// sequential fire stream, which keeps redrawing the same scratch, consumes
	// the sentinel's sampler tickets in order (leaseSet).
	leases leaseSet

	// The checker's reference invocation and write captures (diffcheck.go); a
	// shadow run, which starts once the live pipeline is done with them,
	// borrows refInv and natCap (shadow.go).
	refInv         Invocation
	refCap, natCap writeCap
}

// begin points d at a tenant's datapath, settling the books first when they
// are another tenant's (FireQueue.Drain re-points one record per item).
// Flush count before route: mutators publish route-then-count, so a verdict
// computed against this snapshot is cached under a count no newer than the
// snapshot — it can go stale, never wrong.
func (d *dispatch) begin(ts *tenantState) {
	if d.ts != ts {
		d.settle()
	}
	d.ts = ts
	d.flush = ts.flush.Load()
	d.rt = ts.route.Load()
	d.hr = nil // resolved in the snapshot just replaced
}

// event stages one event that left the cached-hit path, drawing the scratch
// if this dispatch has none yet. Emissions append to emit, the caller's
// buffer (nil for none). It writes in place: every invocation field but feats
// (which stays with the scratch), and of the recorder only what addRow reads —
// rows past nrows are never read, and release clears them.
func (d *dispatch) event(hook string, key, arg2, arg3 int64, fb Fallback, record bool, emit []int64) *scratch {
	s := d.s
	if s == nil {
		s = d.k.pool.get()
		d.s = s
	}
	inv := &s.inv
	inv.Hook, inv.Key, inv.Arg2, inv.Arg3, inv.fallback = hook, key, arg2, arg3, fb
	inv.emissions, inv.emitBudget, inv.rateHits, inv.inferences = emit, d.k.cfg.RateLimit, 0, 0
	inv.injectHelperErr = nil
	s.rec.ok, s.rec.prog, s.rec.nrows = record, nil, 0
	return s
}

// release settles the books and returns the scratch. Nothing of this dispatch
// may ride the pool into the next: emission ownership moved to the results,
// and the snapshot, rows and fallback would pin a dead configuration. Unused
// sampler tickets stay parked in the lease set for the dispatch that draws
// the scratch next.
func (d *dispatch) release() {
	d.settle()
	if s := d.s; s != nil {
		s.inv = Invocation{feats: s.inv.feats}
		s.rec, s.out, s.env = fireRec{}, nil, env{}
		d.k.pool.put(s)
		d.s = nil
	}
}

// Event is one pending hook event for FireBatch. Prep, when non-nil, runs
// immediately before the event dispatches — subsystems use it to stage
// per-event state (e.g. SetVec of a feature vector) inside the batch.
type Event struct {
	Hook string
	Key  int64
	Arg2 int64
	Arg3 int64
	Prep func()
}

// Fire dispatches a kernel event at a hook point through the attached table
// pipeline: each table is looked up with key; matched entries run their
// action in order. Hook argument registers: R1 = key, R2 = arg2, R3 = arg3
// (ActionProgram entries with a Param override R3 with the parameter).
//
// Fire never returns an error for datapath-level failures: a trapping
// program or a missing model degrades to the default action, matching §3.3's
// fail-soft stance (admitted programs "only influence kernel decisions in a
// constrained manner"). With a supervisor attached the degradation is
// stronger still: a program whose breaker has tripped is quarantined and the
// hook routes to its registered baseline fallback until half-open probes
// re-admit it.
//
// The hot path is lock-free: dispatch runs against an immutable route
// snapshot (atomic pointer), table lookups read lock-free table entry sets
// (internal/table), and for verifier-certified pure pipelines the whole verdict is
// memoized per (hook, args) from a flow's second replayable miss (the first
// only leaves a fingerprint in the cache's doorkeeper, so one-shot flows are
// never stored) and replayed until something that fire read changes: an
// entry or default of a table it consulted, a model its program declares,
// the hook's pipeline, or the configuration as a whole. Commits elsewhere —
// another hook's tables, a new program, an unrelated model — leave it cached.
// What the fire counts is visible when Fire returns.
func (k *Kernel) Fire(hook string, key, arg2, arg3 int64) FireResult {
	d := dispatch{k: k}
	d.begin(k.def)
	res := FireResult{Verdict: DefaultVerdict}
	d.fire(hook, key, arg2, arg3, &res)
	d.release()
	return res
}

// FireBatch dispatches n pending events through one route-snapshot
// acquisition and one dispatch loop, writing out[i] for events[i]. The whole
// batch runs against a single consistent snapshot: a control-plane commit
// that republishes (a model, a program, a pipeline, the configuration) and
// lands mid-batch applies to the next batch, exactly as if the batch had
// fired before it — replayed verdicts included, which are validated against
// the batch's own snapshot. Table entries are not part of the snapshot: an
// entry edit is visible to the next lookup, mid-batch or not. len(out) must
// be >= len(events); extra out entries are left untouched. out[i].Emissions'
// backing array, when there is one, is reused for events[i]'s emissions: a
// caller that keeps its out slice across batches allocates no emission buffer
// once they have grown, and must be done reading a batch's emissions before
// it passes the same out to the next batch. Each event's Prep
// hook (if any) runs just before that event dispatches.
// What the batch counts is tallied on the stack and published when FireBatch
// returns, a panicking Prep's batch included: a Prep sees the counts as of
// the batch's start (breaker records and invalidations excepted).
func (k *Kernel) FireBatch(events []Event, out []FireResult) {
	if len(events) == 0 {
		return
	}
	d := dispatch{k: k}
	defer d.release()
	d.begin(k.def)
	for i := range events {
		ev := &events[i]
		if ev.Prep != nil {
			ev.Prep()
		}
		out[i] = FireResult{Verdict: DefaultVerdict, Emissions: out[i].Emissions[:0]}
		d.fire(ev.Hook, ev.Key, ev.Arg2, ev.Arg3, &out[i])
	}
}

// fire dispatches one event against the dispatch's route snapshot. res must
// arrive initialized to {Verdict: DefaultVerdict}, with an empty (or nil)
// Emissions buffer for the event's emissions to append to.
func (d *dispatch) fire(hook string, key, arg2, arg3 int64, res *FireResult) {
	hr := d.hr
	if hr == nil || hook != d.hook {
		hr = d.rt.hook(hook)
		d.hook, d.hr = hook, hr
	}
	if hr == nil || len(hr.tables) == 0 {
		return
	}
	b := &d.b
	b.lane = shardIndex(key)
	b.fires++

	var fk table.FlowKey
	record := hr.cacheable
	if record {
		fk = table.FlowKey{Hook: hr.id, Key: uint64(key), Arg2: arg2, Arg3: arg3}
		if cf, ok := d.ts.vcache.Get(fk, d.flush); !ok {
			b.misses++
		} else if pb, why := cf.check(d.rt, hr); why != fresh {
			// Something this verdict read has changed: a miss, re-recorded.
			b.misses++
			d.ts.vcache.Reject(fk)
			d.ts.rejected[why].Add(1)
		} else {
			b.hits++
			if pb == nil || pb.brk.closed() {
				d.replay(cf, pb, hook, res)
				return
			}
			// The breaker is re-routing the cached program (probe or
			// fallback). Asking "closed?" ticked nothing: the slow path runs
			// unrecorded and takes the fire's one allow() there.
			record = false
		}
	}
	d.event(hook, key, arg2, arg3, hr.fallback, record, res.Emissions)
	d.slow(hr, fk, res)
}

// replay replays one memoized fire whose stamp check passed and whose
// program's breaker is closed, pb being that program as check resolved it (nil
// for none). Its counts go to the books; the breaker's record is the only
// shared word it writes.
func (d *dispatch) replay(cf *cachedFire, pb *progBinding, hook string, res *FireResult) {
	res.Matched = cf.matched
	res.Verdict = cf.verdict
	res.Steps = cf.steps
	res.CacheHit = true
	if pb != nil {
		d.steps(cf.steps)
		if pb.brk != nil {
			if failure, _ := pb.brk.record(hook, cf.steps, 0, nil); failure != nil {
				d.k.cSLOViolations.Inc()
			}
		}
	}
	d.b.infers += cf.infers
}

// slow runs the staged event through the full pipeline and, when the fire
// proved replayable and the verdict cache's doorkeeper has seen the flow
// before, memoizes the outcome under fk with the stamp of what it read.
func (d *dispatch) slow(hr *hookRoute, fk table.FlowKey, res *FireResult) {
	s := d.s
	inv, rec := &s.inv, &s.rec

	// One injector decision per firing index of this hook; whether it
	// strikes depends on the supervisor routing below (a quarantined program
	// does not run, so scheduled faults pass it by).
	s.out = d.rt.inj.Check(inv.Hook)

	// The shadow candidate re-runs the last decision-bearing entry (program
	// or inference) after the live pipeline completes, so it observes exactly
	// the context state the incumbent observed plus the incumbent's own
	// writes — the state it would inherit if promoted.
	var shadowEntry *table.Entry

	for _, t := range hr.tables {
		// Version before Lookup: the table publishes snapshot-then-version, so
		// the row is stamped no newer than the entries it saw. An exact match
		// is stamped by the entry itself (addRow), retired after the snapshot
		// that drops it is published; whether the lookup matched an entry or
		// fell to the default is read off the same snapshot it searched.
		ver := t.Version()
		entry, matched := t.LookupMatch(uint64(inv.Key))
		if matched {
			rec.addRow(t, entry, ver)
		} else {
			rec.addRow(t, nil, ver)
		}
		if entry == nil {
			continue
		}
		res.Matched++
		if hr.shadow != nil && (entry.Action.Kind == table.ActionProgram || entry.Action.Kind == table.ActionInfer) {
			shadowEntry = entry
		}
		d.runAction(entry, res)
	}
	res.Emissions = inv.emissions
	res.RateLimited = inv.rateHits
	d.b.infers += inv.inferences
	if shadowEntry != nil {
		d.runShadow(hr.shadow, shadowEntry, res)
	}

	// Admit comes last: only a fire that proved replayable leaves a
	// fingerprint, and a flow's first such miss stops here — no cachedFire, no
	// shard-map insert — so a flow that never recurs costs an uncached fire.
	if !rec.ok || res.Trapped || res.FellBack || len(inv.emissions) != 0 || inv.rateHits != 0 {
		return
	}
	if !d.ts.vcache.Admit(fk) {
		d.b.declined++
		return
	}
	cf := &cachedFire{
		rows:    append([]cachedRow(nil), rec.rows[:rec.nrows]...),
		matched: res.Matched,
		verdict: res.Verdict,
		steps:   res.Steps,
		infers:  inv.inferences,
		epoch:   hr.epoch,
	}
	if pb := rec.prog; pb != nil {
		cf.progID, cf.dep = pb.id, pb.dep
	}
	d.ts.vcache.Put(fk, d.flush, cf)
}

// runAction executes one matched entry's action.
func (d *dispatch) runAction(entry *table.Entry, res *FireResult) {
	k, s := d.k, d.s
	inv := &s.inv
	switch entry.Action.Kind {
	case table.ActionPass:
		// Default behaviour; nothing to do.
	case table.ActionParam:
		res.Verdict = entry.Action.Param
	case table.ActionCollect:
		// Record the event value into the key's history — the
		// data-collection phase of learning. Context writes are invisible to
		// every stamp a cached verdict carries, so collecting fires are never
		// cached.
		s.rec.ok = false
		k.ctx.HistPush(inv.Key, inv.Arg2)
		k.ctrCollects.Inc(d.b.lane)
	case table.ActionInfer:
		// Reads the mutable history ring: not cacheable.
		s.rec.ok = false
		m := d.rt.model(entry.Action.ModelID)
		if m == nil {
			k.cInferMissing.Inc()
			return
		}
		if cap(inv.feats) < m.nfeat {
			inv.feats = make([]int64, m.nfeat)
		}
		feats := inv.feats[:m.nfeat]
		if k.ctx.Hist(inv.Key, feats) < m.nfeat {
			return // not enough history yet; default behaviour applies
		}
		res.Verdict = m.Predict(feats)
		inv.inferences++
	case table.ActionProgram:
		d.runProgramAction(entry, res)
	}
}

// runProgramAction routes one program action through its bound breaker (if
// supervised), applies scheduled faults, and records the outcome.
func (d *dispatch) runProgramAction(entry *table.Entry, res *FireResult) {
	k, s := d.k, d.s
	inv, rec, out := &s.inv, &s.rec, s.out
	pb := d.rt.prog(entry.Action.ProgID)
	if pb == nil {
		// A dangling entry (its program was removed) fails soft: no program,
		// so no breaker to consult and nothing to memoize.
		rec.ok = false
		k.cProgMissing.Inc()
		return
	}

	if dec := pb.brk.allow(); dec != DecisionRun {
		// A probe or fallback run must not be memoized: the breaker's state
		// machine has to see every subsequent fire.
		rec.ok = false
		if dec == DecisionFallback {
			k.runFallback(inv, res)
			return
		}
	}

	verdict, steps, trapped, err := d.runProgram(pb, entry.Action.Param)
	if err != nil && errors.Is(err, ErrEngineQuarantined) {
		// The engine-health ladder is exhausted for this program: route to
		// the hook's baseline fallback, exactly like a supervisor
		// quarantine. The breaker clock is not ticked — no engine ran.
		rec.ok = false
		d.b.tiers[TierBaseline]++
		d.rt.sentinel.ctrBaseline.Add(1)
		k.runFallback(inv, res)
		return
	}
	res.Steps += steps
	var latency int64
	if out != nil {
		// The learned path ran, so a scheduled latency spike strikes it.
		latency = out.LatencyNs
		res.DelayNs += latency
	}

	if !pb.pure || rec.prog != nil {
		rec.ok = false // impure, or a second program: only one breaker replays
	}
	rec.prog = pb

	if pb.brk != nil {
		if failure, _ := pb.brk.record(inv.Hook, steps, latency, err); failure != nil && err == nil {
			// SLO violation on an otherwise successful fire: the verdict
			// stands (the program behaved), but the breaker has seen it.
			k.cSLOViolations.Inc()
		}
	}

	if trapped {
		rec.ok = false
		res.Trapped = true
		res.TrapErr = err
		k.cTraps.Inc()
		return
	}
	if out != nil && out.Corrupt {
		// Silent result corruption: no error for the breaker to see — this
		// is the fault class only accuracy monitoring can catch.
		verdict = out.CorruptVal
		k.cCorrupted.Inc()
	}
	res.Verdict = verdict
}

// runFallback substitutes the hook's registered baseline policy for a
// quarantined program. Emissions stay under the invocation's rate-limit
// budget: the baseline lives inside the same resource envelope the verifier
// imposed on the program it replaces.
func (k *Kernel) runFallback(inv *Invocation, res *FireResult) {
	fb := inv.fallback
	if fb == nil {
		return // no baseline registered: default action applies
	}
	verdict, emissions := fb.Decide(inv.Hook, inv.Key, inv.Arg2, inv.Arg3)
	res.Verdict = verdict
	for _, e := range emissions {
		if len(inv.emissions) >= inv.emitBudget {
			inv.rateHits++
			k.cRateLimited.Inc()
			break
		}
		inv.emissions = append(inv.emissions, e)
	}
	res.FellBack = true
	k.cFallbackDecisions.Inc()
}

// runProgram executes an installed program for the staged event under the
// engine tier the health ladder resolves (the configured mode's tier when no
// sentinel is attached), applying any scheduled fault outcome. A panicking
// engine or helper is recovered into a trap — a buggy learned datapath must
// not take the kernel down with it. With a sentinel attached, sampled
// executions run the checked differential pair, and an exhausted ladder
// returns ErrEngineQuarantined so the caller routes to the baseline fallback.
// Whatever the sentinel makes non-replayable — a demoted tier ran, a
// re-promotion probe ran, the checker sampled the fire — clears rec.ok: the
// ladder must see every fire.
func (d *dispatch) runProgram(pb *progBinding, param int64) (verdict int64, steps int64, trapped bool, err error) {
	s := d.s
	inv, out := &s.inv, s.out
	p := pb.progEntry
	if out != nil {
		if out.Trap {
			return 0, 0, true, out.TrapErr
		}
		if out.HelperErr != nil {
			inv.injectHelperErr = out.HelperErr
		}
	}
	arg3 := inv.Arg3
	if param != 0 {
		arg3 = param
	}

	// Engine-health ladder, hand-inlined: no sentinel costs one branch, a
	// healthy program one atomic tier compare.
	pref, h := pb.pref, pb.health
	tier, probe := pref, false
	if h != nil && h.tier() < pref {
		var rung int32
		rung, probe = h.decide(int32(pref))
		tier = EngineTier(rung)
	}
	if probe || tier != pref {
		s.rec.ok = false
	}
	if tier == TierBaseline {
		return 0, 0, false, fmt.Errorf("%w: program %q", ErrEngineQuarantined, p.prog.Name)
	}
	sen := d.rt.sentinel
	fireIdx := int64(-1)
	// A fire carrying an injected helper error is never checked: the injection
	// strikes only the native run, so the clean reference would register a
	// guaranteed — and bogus — divergence. Program-level faults are the
	// supervisor's domain, not the sentinel's.
	if h != nil && tier >= TierJIT && p.checkable && (out == nil || out.HelperErr == nil) {
		// A probed execution is always checked (promotion evidence must be
		// trustworthy) and never advances the sampler clock.
		checked := probe
		if !probe {
			fireIdx, checked = sen.sampleTicket(h, &s.leases)
			fireIdx++ // 1-based index recorded in demotion events
		}
		if checked {
			s.rec.ok = false
			return d.runCheckedPair(p, tier, h, probe, fireIdx, arg3)
		}
	}
	verdict, steps, trapped, err = d.runNative(p, tier, arg3, nil)
	if h != nil {
		if trapped && errors.Is(err, ErrProgramPanic) {
			sen.engineFault(h, tier, probe, fireIdx, CausePanic, err.Error())
		} else if probe {
			// Sub-JIT probes (no checked reference below them) land here;
			// JIT+ probes return through runCheckedPair above.
			sen.probeSucceeded(h, tier)
		} else {
			engineFireOK(h)
		}
	}
	return verdict, steps, trapped, err
}

// runNative executes one engine invocation of the staged event at an explicit
// tier, optionally under write capture. poison (an injected engine panic)
// fires inside the engine's recover scope, exercising the real containment
// path.
func (d *dispatch) runNative(p *progEntry, tier EngineTier, arg3 int64, wcap *writeCap) (int64, int64, bool, error) {
	k, s := d.k, d.s
	inv, out := &s.inv, s.out
	var poison error
	if out != nil {
		poison = out.EnginePanic
	}
	d.b.tiers[tier]++
	// The whole env, every run: nothing of a reference or shadow run (its
	// invocation, capture or model overlay) can linger into a live one.
	s.env = env{k: k, rt: d.rt, inv: inv, wcap: wcap}
	var engine vm.Engine
	switch tier {
	case TierJIT:
		engine = p.jit
	case TierInterp:
		engine = p.interp
	}
	ret, steps, rerr := s.run(engine, p.aot, poison, inv.Key, inv.Arg2, arg3)
	if tier == TierAOT && rerr == nil && out != nil && out.Miscompile {
		// An injected miscompile silently perturbs the AOT result — the
		// fault class only the differential checker can catch.
		ret += out.MiscompileDelta
	}
	inv.injectHelperErr = nil // unconsumed injections do not leak across runs
	d.steps(steps)
	if rerr != nil {
		return 0, steps, true, rerr
	}
	return ret, steps, false, nil
}

// run runs one engine invocation against s.env with panic containment: a
// bytecode engine on the scratch's machine state or, when engine is nil, the
// generated function fn. A panicking generated function loses its partial step
// count (the frame is gone); the trap itself is still charged to the breaker
// like any engine panic. poison, when non-nil, is an injected engine panic
// raised inside the recover scope, so the containment path under test is the
// real one — before the engine resets the pooled state, which still holds some
// earlier run's count: a poisoned run ran no step.
func (s *scratch) run(engine vm.Engine, fn aot.Func, poison error, r1, r2, r3 int64) (ret, steps int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrProgramPanic, r)
			if engine != nil && poison == nil {
				steps = s.st.Steps()
			}
		}
	}()
	if poison != nil {
		panic(poison)
	}
	if engine == nil {
		return fn(&s.env, &s.aot, r1, r2, r3)
	}
	ret, err = engine.Run(&s.env, &s.st, r1, r2, r3)
	return ret, s.st.Steps(), err
}

// RunProgramByName executes an installed program directly (outside a hook
// pipeline) — used by tests, rmtkctl and examples. A quarantined program is
// refused with ErrQuarantined.
func (k *Kernel) RunProgramByName(name string, r1, r2, r3 int64) (int64, []int64, error) {
	id, err := k.ProgramID(name)
	if err != nil {
		return 0, nil, err
	}
	if sup := k.Supervisor(); sup != nil && sup.State(id) != BreakerClosed {
		return 0, nil, fmt.Errorf("%w: program %q", ErrQuarantined, name)
	}
	d := dispatch{k: k}
	d.begin(k.def)
	pb := d.rt.prog(id)
	if pb == nil {
		return 0, nil, fmt.Errorf("%w: program %d", ErrNotFound, id)
	}
	s := d.event("", r1, r2, r3, nil, false, nil)
	verdict, _, trapped, err := d.runProgram(pb, 0)
	emissions := s.inv.emissions
	d.b.infers += s.inv.inferences
	d.release()
	if trapped || err != nil {
		return 0, nil, err
	}
	return verdict, emissions, nil
}
