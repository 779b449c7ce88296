package core

import (
	"fmt"
	"sync"

	"rmtk/internal/table"
	"rmtk/internal/vm"
)

// This file implements shadow execution, the update-time half of the fault
// containment story (the supervisor in supervisor.go is the runtime half): a
// candidate model rides along with the incumbent on live hook traffic,
// charged zero virtual-clock latency and stripped of every globally visible
// side effect, while the kernel records how the candidate's behaviour diverges
// from the incumbent's. The control plane's Canary controller
// (internal/ctrl) reads the accumulated CanaryReport to decide promotion or
// rollback — a model that passes the verifier's static budget checks can
// still be behaviourally worse than the incumbent, and shadow execution is
// how that is detected before the candidate touches the datapath.

// CanaryReport aggregates shadow-execution statistics for one attached
// Shadow. All counters are cumulative since attachment.
type CanaryReport struct {
	// Fires is how many hook events ran the candidate in shadow.
	Fires int64
	// Divergences counts shadow runs whose verdict or emissions differed
	// from the incumbent's (trapped shadow runs are counted separately).
	Divergences int64
	// VerdictDiffs / EmitDiffs break Divergences down by cause (a run that
	// differs in both increments both but counts as one divergence).
	VerdictDiffs int64
	EmitDiffs    int64
	// Traps counts shadow runs that trapped (including candidate model
	// panics, which are contained exactly like live program panics).
	Traps int64
	// LiveTraps counts incumbent runs that trapped while shadowed.
	LiveTraps int64
	// ShadowSteps / LiveSteps accumulate executed VM steps on each side, for
	// cost comparison (model-overlay shadows of ActionInfer entries execute
	// no bytecode and contribute zero).
	ShadowSteps int64
	LiveSteps   int64
}

// DivergenceFrac reports the fraction of shadow fires that diverged.
func (r CanaryReport) DivergenceFrac() float64 {
	if r.Fires == 0 {
		return 0
	}
	return float64(r.Divergences) / float64(r.Fires)
}

// TrapFrac reports the fraction of shadow fires that trapped.
func (r CanaryReport) TrapFrac() float64 {
	if r.Fires == 0 {
		return 0
	}
	return float64(r.Traps) / float64(r.Fires)
}

// Shadow is a candidate model attached to one hook for shadow execution: the
// incumbent's matched entry re-runs with model id lookups redirected to the
// candidate (the model-push canary).
type Shadow struct {
	hook    string
	overlay map[int64]Model

	mu       sync.Mutex
	rep      CanaryReport
	onResult func(key, verdict int64, emissions []int64, trapped bool)
}

// NewModelShadow builds a shadow that re-runs the incumbent datapath with
// model id modelID resolving to candidate.
func NewModelShadow(hook string, modelID int64, candidate Model) *Shadow {
	return &Shadow{hook: hook, overlay: map[int64]Model{modelID: candidate}}
}

// SetOnResult installs a callback invoked after every shadow run with the
// invocation key (e.g. the pid) and the candidate's verdict, emissions and
// trap flag — datapaths use it to label shadow predictions against real
// outcomes (e.g. whether a shadow-predicted page was subsequently accessed).
// The callback runs on the firing goroutine outside kernel locks; it must
// not call Fire.
func (s *Shadow) SetOnResult(fn func(key, verdict int64, emissions []int64, trapped bool)) {
	s.mu.Lock()
	s.onResult = fn
	s.mu.Unlock()
}

// Report returns a snapshot of the accumulated statistics.
func (s *Shadow) Report() CanaryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rep
}

// record folds one shadow run into the report and returns whether it diverged
// and the result callback to invoke (outside the lock).
func (s *Shadow) record(live *FireResult, verdict int64, emissions []int64, steps int64, trapped bool) (bool, func(int64, int64, []int64, bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep.Fires++
	s.rep.ShadowSteps += steps
	s.rep.LiveSteps += live.Steps
	if live.Trapped {
		s.rep.LiveTraps++
	}
	if trapped {
		s.rep.Traps++
		return false, s.onResult
	}
	verdictDiff := verdict != live.Verdict
	emitDiff := !int64SlicesEqual(emissions, live.Emissions)
	if verdictDiff {
		s.rep.VerdictDiffs++
	}
	if emitDiff {
		s.rep.EmitDiffs++
	}
	if verdictDiff || emitDiff {
		s.rep.Divergences++
	}
	return verdictDiff || emitDiff, s.onResult
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AttachShadow attaches a shadow to its hook. At most one shadow per hook:
// attaching over an existing one fails (detach the old canary first), so two
// concurrent rollouts cannot silently observe each other's candidate.
func (k *Kernel) AttachShadow(s *Shadow) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.shadows[s.hook]; dup {
		return fmt.Errorf("%w: shadow at %q", ErrDuplicate, s.hook)
	}
	k.shadows[s.hook] = s
	k.rebuildRoutesLocked()
	k.Metrics.Counter("core.shadows_attached").Inc()
	return nil
}

// DetachShadow removes and returns the shadow at hook, or nil.
func (k *Kernel) DetachShadow(hook string) *Shadow {
	k.mu.Lock()
	defer k.mu.Unlock()
	s := k.shadows[hook]
	delete(k.shadows, hook)
	k.rebuildRoutesLocked()
	return s
}

// runShadow executes the candidate for the staged event, which already ran
// the incumbent. It charges nothing to the datapath: emissions go to a private
// invocation, DelayNs is untouched, fault injection does not apply, and the
// run's context/pool writes land in a write capture that is never committed —
// the candidate reads its own writes, as it would live, and cannot corrupt
// state the incumbent reads.
func (d *dispatch) runShadow(sh *Shadow, entry *table.Entry, liveRes *FireResult) {
	k, s := d.k, d.s
	live, sinv := &s.inv, &s.refInv
	*sinv = Invocation{
		Hook: live.Hook, Key: live.Key, Arg2: live.Arg2, Arg3: live.Arg3,
		emitBudget: k.cfg.RateLimit,
	}
	defer s.settle()
	verdict := DefaultVerdict
	var steps int64
	var trapped bool

	switch entry.Action.Kind {
	case table.ActionProgram:
		verdict, steps, trapped = d.runShadowProgram(sh, entry.Action.ProgID, entry.Action.Param)
	case table.ActionInfer:
		verdict, trapped = d.runShadowInfer(sh, entry.Action.ModelID)
	default:
		return
	}

	d.b.infers += sinv.inferences
	k.Metrics.Counter("core.shadow_fires").Inc()
	if trapped {
		k.Metrics.Counter("core.shadow_traps").Inc()
	}
	diverged, cb := sh.record(liveRes, verdict, sinv.emissions, steps, trapped)
	if diverged {
		k.Metrics.Counter("core.shadow_divergences").Inc()
	}
	if cb != nil {
		cb(live.Key, verdict, sinv.emissions, trapped)
	}
}

// runShadowProgram is runProgram for the shadow lane: overlay models, captured
// writes, no fault injection, and the same panic containment as live runs (a
// panicking candidate traps, it does not take the kernel down).
func (d *dispatch) runShadowProgram(sh *Shadow, progID, param int64) (verdict int64, steps int64, trapped bool) {
	s := d.s
	inv := &s.refInv
	p := d.rt.prog(progID)
	if p == nil {
		return DefaultVerdict, 0, true
	}
	arg3 := inv.Arg3
	if param != 0 {
		arg3 = param
	}
	var engine vm.Engine = p.jit
	if p.pref == TierInterp {
		engine = p.interp
	}
	s.env = env{k: d.k, rt: d.rt, inv: inv, overlay: sh.overlay, wcap: &s.natCap}
	ret, steps, err := s.run(engine, nil, nil, inv.Key, inv.Arg2, arg3)
	if err != nil {
		return DefaultVerdict, steps, true
	}
	return ret, steps, false
}

// runShadowInfer re-runs an ActionInfer entry with the candidate model. The
// candidate's Predict is unverified Go code until promotion, so panics are
// contained into shadow traps.
func (d *dispatch) runShadowInfer(sh *Shadow, modelID int64) (verdict int64, trapped bool) {
	k := d.k
	m, ok := sh.overlay[modelID]
	if !ok {
		mb := d.rt.model(modelID)
		if mb == nil {
			return DefaultVerdict, true
		}
		m = mb.Model
	}
	defer func() {
		if r := recover(); r != nil {
			k.Metrics.Counter("core.shadow_model_panics").Inc()
			verdict, trapped = DefaultVerdict, true
		}
	}()
	n := m.NumFeatures()
	feats := make([]int64, n)
	if got := k.ctx.Hist(d.s.inv.Key, feats); got < n {
		return DefaultVerdict, false // mirrors the live not-enough-history path
	}
	return m.Predict(feats), false
}
