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

	// noCache is set by runProgram when the engine sentinel made this fire
	// non-replayable (a demoted tier ran, a re-promotion probe ran, or the
	// differential checker sampled it): the ladder must see every fire.
	noCache bool

	// fallback is the hook's resolved baseline (hookRoute.fallback).
	fallback Fallback
	// feats is ActionInfer's history window; it stays with the pooled
	// invocation across fires.
	feats []int64
}

// Emissions returns the values emitted during the invocation.
func (inv *Invocation) Emissions() []int64 { return inv.emissions }

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

// fireCtx carries per-dispatch scratch down the fire path. It holds the
// sentinel's sampler-ticket lease set, drawn lazily on the first sampler
// consult and returned to the pool when the dispatch — or the whole batch,
// which shares one fireCtx so chunk claims amortize across it — completes.
type fireCtx struct {
	sen    *Sentinel
	leases *leaseSet
}

// release returns the lease set (unused tickets stay parked in it for the
// next fire that draws it from the recycle stack).
func (fc *fireCtx) release() {
	if fc.leases != nil {
		fc.sen.leases.put(fc.leases)
		fc.leases = nil
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
// snapshot (atomic pointer), table lookups read copy-on-write table
// snapshots, and for verifier-certified pure pipelines the whole verdict is
// memoized per (hook, args) from a flow's second replayable miss (the first
// only leaves a fingerprint in the cache's doorkeeper, so one-shot flows are
// never stored) and replayed until something that fire read changes: an
// entry or default of a table it consulted, a model its program declares,
// the hook's pipeline, or the configuration as a whole. Commits elsewhere —
// another hook's tables, a new program, an unrelated model — leave it cached.
func (k *Kernel) Fire(hook string, key, arg2, arg3 int64) FireResult {
	// Flush count before route: mutators publish route-then-count, so a
	// verdict computed against this snapshot is cached under a count no newer
	// than the snapshot — it can go stale, never wrong.
	ts := k.def
	flush := ts.flush.Load()
	rt := ts.route.Load()
	res := FireResult{Verdict: DefaultVerdict}
	var fc fireCtx
	k.fireOne(ts, rt, flush, hook, key, arg2, arg3, &res, &fc)
	fc.release()
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
// be >= len(events); extra out entries are left untouched. Each event's Prep
// hook (if any) runs just before that event dispatches.
func (k *Kernel) FireBatch(events []Event, out []FireResult) {
	if len(events) == 0 {
		return
	}
	ts := k.def
	flush := ts.flush.Load()
	rt := ts.route.Load()
	var fc fireCtx
	for i := range events {
		ev := &events[i]
		if ev.Prep != nil {
			ev.Prep()
		}
		out[i] = FireResult{Verdict: DefaultVerdict}
		k.fireOne(ts, rt, flush, ev.Hook, ev.Key, ev.Arg2, ev.Arg3, &out[i], &fc)
	}
	fc.release()
}

// fireOne dispatches one event against a tenant's route snapshot; flush is
// the tenant's flush count, loaded before rt. res must arrive initialized to
// {Verdict: DefaultVerdict}.
func (k *Kernel) fireOne(ts *tenantState, rt *routes, flush uint64, hook string, key, arg2, arg3 int64, res *FireResult, fc *fireCtx) {
	hr := rt.hooks[hook]
	if hr == nil || len(hr.tables) == 0 {
		return
	}
	shard := shardIndex(key)
	k.ctrFires.Inc(shard)

	var fk table.FlowKey
	var pre *preDecision
	record := hr.cacheable
	if record {
		fk = table.FlowKey{Hook: hr.id, Key: uint64(key), Arg2: arg2, Arg3: arg3}
		if cf, ok := ts.vcache.Get(fk, flush); ok {
			if pb, why := cf.check(rt, hr); why != fresh {
				// Something this verdict read has changed: a miss, re-recorded.
				ts.vcache.Reject(fk)
				ts.rejected[why].Add(1)
			} else if pre = k.replayCached(cf, pb, shard, hook, key, res); pre == nil {
				return
			} else {
				// The breaker re-routed the cached program (probe or
				// fallback): run the slow path unrecorded, handing it the
				// already-taken decision so the breaker clock ticks exactly
				// once.
				record = false
			}
		}
	}
	k.fireSlow(ts, rt, flush, hr, shard, hook, key, arg2, arg3, res, record, fk, pre, fc)
}

// preDecision hands a supervisor Allow verdict taken during cache replay to
// the slow path, so the breaker is consulted exactly once per fire.
type preDecision struct {
	prog *progBinding
	d    Decision
}

// replayCached replays one memoized fire whose stamp check passed, pb being
// the program it ran as check resolved it (nil for none), and returns nil —
// or, when the breaker routed the cached program to a probe or the fallback,
// replays nothing and returns the decision it took.
func (k *Kernel) replayCached(cf *cachedFire, pb *progBinding, shard int, hook string, key int64, res *FireResult) *preDecision {
	if pb != nil {
		if d := pb.brk.allow(); d != DecisionRun {
			return &preDecision{prog: pb, d: d}
		}
	}
	for i := range cf.rows {
		cf.rows[i].t.CreditLookup(uint64(key), cf.rows[i].hit)
	}
	res.Matched = cf.matched
	res.Verdict = cf.verdict
	res.Steps = cf.steps
	res.CacheHit = true
	if pb != nil {
		k.histSteps.Observe(shard, cf.steps)
		if pb.brk != nil {
			if failure, _ := pb.brk.record(hook, cf.steps, 0, nil); failure != nil {
				k.cSLOViolations.Inc()
			}
		}
	}
	if cf.infers > 0 {
		k.ctrInfers.Add(shard, cf.infers)
	}
	return nil
}

// fireSlow runs the full pipeline and, when the fire proved replayable and
// the verdict cache's doorkeeper has seen the flow before, memoizes the
// outcome under fk with the stamp of what it read.
func (k *Kernel) fireSlow(ts *tenantState, rt *routes, flush uint64, hr *hookRoute, shard int, hook string, key, arg2, arg3 int64, res *FireResult, record bool, fk table.FlowKey, pre *preDecision, fc *fireCtx) {
	// The invocation is pooled because it escapes into the engine env (the
	// env is handed to program code through the vm.Env interface); a fresh
	// heap Invocation per fire was the hot path's dominant allocation.
	inv := k.invPool.Get().(*Invocation)
	*inv = Invocation{
		Hook: hook, Key: key, Arg2: arg2, Arg3: arg3,
		emitBudget: k.cfg.RateLimit, fallback: hr.fallback, feats: inv.feats,
	}

	// One injector decision per firing index of this hook; whether it
	// strikes depends on the supervisor routing below (a quarantined program
	// does not run, so scheduled faults pass it by).
	out := rt.inj.Check(hook)

	// The shadow candidate re-runs the last decision-bearing entry (program
	// or inference) after the live pipeline completes, so it observes exactly
	// the context state the incumbent observed plus the incumbent's own
	// writes — the state it would inherit if promoted.
	var shadowEntry *table.Entry

	rec := fireRec{ok: record}
	for _, t := range hr.tables {
		// Version before Lookup: the table publishes snapshot-then-version, so
		// the row is stamped no newer than the entries it saw.
		ver := t.Version()
		entry := t.Lookup(uint64(key))
		if entry == nil {
			rec.addRow(t, nil, ver)
			continue
		}
		res.Matched++
		if hr.shadow != nil && (entry.Action.Kind == table.ActionProgram || entry.Action.Kind == table.ActionInfer) {
			shadowEntry = entry
		}
		if entry == t.Default() {
			rec.addRow(t, nil, ver)
		} else {
			rec.addRow(t, entry, ver)
		}
		k.runAction(rt, shard, entry, inv, res, &rec, pre, out, fc)
	}
	res.Emissions = inv.emissions
	res.RateLimited = inv.rateHits
	if inv.inferences > 0 {
		k.ctrInfers.Add(shard, inv.inferences)
	}
	if shadowEntry != nil {
		k.runShadow(rt, hr.shadow, shadowEntry, inv, res)
	}

	// Admit comes last: only a fire that proved replayable leaves a
	// fingerprint, and a flow's first such miss stops here — no cachedFire, no
	// shard-map insert — so a flow that never recurs costs an uncached fire.
	if rec.ok && !res.Trapped && !res.FellBack &&
		len(inv.emissions) == 0 && inv.rateHits == 0 && ts.vcache.Admit(fk) {
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
		ts.vcache.Put(fk, flush, cf)
	}
	// Emission ownership moved to res above; drop the reference so the
	// pooled invocation cannot pin (or leak into) a later fire's buffer.
	inv.emissions = nil
	k.invPool.Put(inv)
}

// runAction executes one matched entry's action.
func (k *Kernel) runAction(rt *routes, shard int, entry *table.Entry, inv *Invocation, res *FireResult, rec *fireRec, pre *preDecision, out *fault.Outcome, fc *fireCtx) {
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
		rec.ok = false
		k.ctx.HistPush(inv.Key, inv.Arg2)
		k.ctrCollects.Inc(shard)
	case table.ActionInfer:
		// Reads the mutable history ring: not cacheable.
		rec.ok = false
		m := rt.model(entry.Action.ModelID)
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
		k.runProgramAction(rt, shard, entry, inv, res, rec, pre, out, fc)
	}
}

// runProgramAction routes one program action through its bound breaker (if
// supervised), applies scheduled faults, and records the outcome.
func (k *Kernel) runProgramAction(rt *routes, shard int, entry *table.Entry, inv *Invocation, res *FireResult, rec *fireRec, pre *preDecision, out *fault.Outcome, fc *fireCtx) {
	pb := rt.prog(entry.Action.ProgID)
	if pb == nil {
		// A dangling entry (its program was removed) fails soft: no program,
		// so no breaker to consult and nothing to memoize.
		rec.ok = false
		k.cProgMissing.Inc()
		return
	}

	var d Decision
	if pre != nil && pre.prog == pb {
		d = pre.d
		pre.prog = nil // consumed
	} else {
		d = pb.brk.allow()
	}
	if d != DecisionRun {
		// A probe or fallback run must not be memoized: the breaker's state
		// machine has to see every subsequent fire.
		rec.ok = false
		if d == DecisionFallback {
			k.runFallback(inv, res)
			return
		}
	}

	verdict, steps, trapped, err := k.runProgram(rt, shard, pb, inv, entry.Action.Param, out, fc)
	if inv.noCache {
		rec.ok = false
		inv.noCache = false
	}
	if err != nil && errors.Is(err, ErrEngineQuarantined) {
		// The engine-health ladder is exhausted for this program: route to
		// the hook's baseline fallback, exactly like a supervisor
		// quarantine. The breaker clock is not ticked — no engine ran.
		rec.ok = false
		k.ctrTierFires[TierBaseline].Inc(shard)
		rt.sentinel.ctrBaseline.Add(1)
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

// runProgram executes an installed program under the engine tier the health
// ladder resolves (the configured mode's tier when no sentinel is attached),
// applying any scheduled fault outcome. A panicking engine or helper is
// recovered into a trap — a buggy learned datapath must not take the kernel
// down with it. With a sentinel attached, sampled executions run the checked
// differential pair, and an exhausted ladder returns ErrEngineQuarantined so
// the caller routes to the baseline fallback.
func (k *Kernel) runProgram(rt *routes, shard int, pb *progBinding, inv *Invocation, param int64, out *fault.Outcome, fc *fireCtx) (verdict int64, steps int64, trapped bool, err error) {
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
	if h != nil && EngineTier(h.tier.Load()) < pref {
		tier, probe = h.decideSlow(pref)
	}
	if probe || tier != pref {
		inv.noCache = true
	}
	if tier == TierBaseline {
		return 0, 0, false, fmt.Errorf("%w: program %q", ErrEngineQuarantined, p.prog.Name)
	}
	fireIdx := int64(-1)
	if h != nil && tier >= TierJIT && p.checkable && sampleEligible(out) {
		// A probed execution is always checked (promotion evidence must be
		// trustworthy) and never advances the sampler clock.
		checked := probe
		if !probe {
			fireIdx, checked = rt.sentinel.sampleTicket(h, fc)
			fireIdx++ // 1-based index recorded in demotion events
		}
		if checked {
			inv.noCache = true
			return k.runCheckedPair(rt, shard, p, tier, h, probe, fireIdx, inv, arg3, out)
		}
	}
	verdict, steps, trapped, err = k.runNative(rt, shard, p, tier, inv, arg3, out, nil)
	if h != nil {
		if trapped && errors.Is(err, ErrProgramPanic) {
			rt.sentinel.engineFault(h, tier, probe, fireIdx, CausePanic, err.Error())
		} else if probe {
			// Sub-JIT probes (no checked reference below them) land here;
			// JIT+ probes return through runCheckedPair above.
			rt.sentinel.engineOK(h, tier, true)
		} else {
			engineFireOK(h)
		}
	}
	return verdict, steps, trapped, err
}

// sampleEligible excludes fires carrying an injected helper error from
// differential checking: the injection strikes only the native run, so the
// clean reference would register a guaranteed — and bogus — divergence.
// Program-level faults are the supervisor's domain, not the sentinel's.
func sampleEligible(out *fault.Outcome) bool {
	return out == nil || out.HelperErr == nil
}

// runNative executes one engine invocation at an explicit tier, optionally
// under write capture. poison (an injected engine panic) fires inside the
// engine's recover scope, exercising the real containment path.
func (k *Kernel) runNative(rt *routes, shard int, p *progEntry, tier EngineTier, inv *Invocation, arg3 int64, out *fault.Outcome, wcap *writeCap) (verdict int64, steps int64, trapped bool, err error) {
	var poison error
	if out != nil && out.EnginePanic != nil {
		poison = out.EnginePanic
	}
	k.ctrTierFires[tier].Inc(shard)
	es := k.enginePool.Get().(*engineState)
	es.env.k, es.env.rt, es.env.inv, es.env.wcap = k, rt, inv, wcap
	var ret int64
	var rerr error
	if tier == TierAOT {
		ret, steps, rerr = runAOT(p.aot, &es.env, &es.scratch, poison, inv.Key, inv.Arg2, arg3)
		if rerr == nil && out != nil && out.Miscompile {
			// An injected miscompile silently perturbs the AOT result — the
			// fault class only the differential checker can catch.
			ret += out.MiscompileDelta
		}
	} else {
		var engine vm.Engine = p.jit
		if tier == TierInterp {
			engine = p.interp
		}
		ret, rerr = runEngine(engine, &es.env, &es.st, poison, inv.Key, inv.Arg2, arg3)
		if poison == nil {
			// A poisoned run panics before the engine resets the pooled
			// state, which still holds some earlier run's count: it ran no
			// step, as on the AOT arm.
			steps = es.st.Steps()
		}
	}
	es.env.rt, es.env.inv, es.env.wcap = nil, nil, nil
	k.enginePool.Put(es)
	inv.injectHelperErr = nil // unconsumed injections do not leak across runs
	k.histSteps.Observe(shard, steps)
	if rerr != nil {
		return 0, steps, true, rerr
	}
	return ret, steps, false, nil
}

// engineState is the pooled buffer set of one engine run, whatever the tier:
// the env is embedded by value beside the bytecode engines' machine state and
// the generated code's scratch, so a fire allocates nothing for any of them
// (the env escapes through the vm.Env interface, and the JIT keeps its
// per-run record inside vm.State for the same reason). Users set the env
// fields they need and clear them before Put.
type engineState struct {
	env     env
	st      vm.State
	scratch aot.Scratch
}

// runAOT runs one generated function with panic containment. A panic loses
// the partial step count (the generated frame is gone); the trap itself is
// still charged to the breaker like any engine panic. poison, when non-nil,
// is an injected engine panic raised inside the recover scope so the
// containment path under test is the real one.
func runAOT(fn aot.Func, e *env, m *aot.Scratch, poison error, r1, r2, r3 int64) (ret, steps int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrProgramPanic, r)
		}
	}()
	if poison != nil {
		panic(poison)
	}
	return fn(e, m, r1, r2, r3)
}

// runEngine runs one engine invocation with panic containment. poison is an
// injected engine panic (see runAOT).
func runEngine(engine vm.Engine, e *env, st *vm.State, poison error, r1, r2, r3 int64) (ret int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrProgramPanic, r)
		}
	}()
	if poison != nil {
		panic(poison)
	}
	return engine.Run(e, st, r1, r2, r3)
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
	rt := k.def.route.Load()
	pb := rt.prog(id)
	if pb == nil {
		return 0, nil, fmt.Errorf("%w: program %d", ErrNotFound, id)
	}
	inv := Invocation{Key: r1, Arg2: r2, Arg3: r3, emitBudget: k.cfg.RateLimit}
	var fc fireCtx
	verdict, _, trapped, err := k.runProgram(rt, shardIndex(r1), pb, &inv, 0, nil, &fc)
	fc.release()
	if inv.inferences > 0 {
		k.ctrInfers.Add(shardIndex(r1), inv.inferences)
	}
	if trapped || err != nil {
		return 0, nil, err
	}
	return verdict, inv.emissions, nil
}
