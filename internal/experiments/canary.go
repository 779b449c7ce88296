package experiments

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/memsim"
	"rmtk/internal/rmtprefetch"
)

// Canary is the staged-rollout experiment: the Table-1 video workload runs
// on the learned prefetch datapath while a deliberately corrupted retrained
// tree is pushed through the control plane mid-trace — the kind of
// regression an automated training pipeline can produce without any fault in
// the datapath itself. Three runs are compared:
//
//   - clean: the canaried stack with no hostile push — every background
//     retrain goes through shadow rollout and is promoted on labeled shadow
//     accuracy; the reference JCT the canary story must preserve.
//   - canaried: the same stack, plus the corrupted push staged mid-trace.
//     The candidate runs in shadow on live traffic, its predicted pages
//     never materialize as real accesses, the accuracy gate rejects it, and
//     the incumbent keeps serving — JCT stays at the clean level.
//   - uncanaried: the identical corrupted push cut over directly (no shadow
//     stage). Every subsequent prefetch is wrong, so the run degrades toward
//     the no-prefetch floor.
//
// corruptDelta is a large prime so the corrupted tree's constant-delta
// predictions never collide with the workload's true stride pattern.
type CanaryResult struct {
	CleanJCT      float64 // seconds, canaried stack without the hostile push
	CanariedJCT   float64 // seconds, canaried stack + corrupted mid-trace push
	UncanariedJCT float64 // seconds, direct-push stack + the same corruption

	CleanAccuracy      float64 // percent, prefetch accuracy of the clean run
	CanariedAccuracy   float64 // percent, with the rejected hostile push
	UncanariedAccuracy float64 // percent, with the corruption live

	Promotions   int64            // rollouts promoted in the canaried run
	Rejections   int64            // rollouts rejected at the shadow gate (>=1: the corruption)
	ShadowFires  int64            // shadow executions in the canaried run (zero-latency)
	CorruptState ctrl.CanaryState // terminal state of the hostile rollout
}

func (r CanaryResult) String() string {
	return fmt.Sprintf(
		"canary: clean=%.2fs canaried=%.2fs (%.1f%% of clean) uncanaried=%.2fs (%.1f%% of clean)\n"+
			"        accuracy: clean=%.2f%% canaried=%.2f%% uncanaried=%.2f%%\n"+
			"        promotions=%d rejections=%d shadow-fires=%d corrupt-rollout=%s",
		r.CleanJCT, r.CanariedJCT, 100*r.CanariedJCT/r.CleanJCT,
		r.UncanariedJCT, 100*r.UncanariedJCT/r.CleanJCT,
		r.CleanAccuracy, r.CanariedAccuracy, r.UncanariedAccuracy,
		r.Promotions, r.Rejections, r.ShadowFires, r.CorruptState)
}

// corruptDelta is the corrupted tree's constant prediction: a large prime
// far from the video workload's row strides, so no predicted page is ever
// actually accessed.
const corruptDelta = 9973

// corruptModel builds the poisoned candidate: a "retrained tree" whose every
// prediction is the same bogus delta. It is cheap and small, so it sails
// through the verifier's cost gate — only behavioral vetting can catch it.
func corruptModel(feats int) core.Model {
	return &core.FuncModel{
		Fn:    func([]int64) int64 { return corruptDelta },
		Feats: feats,
		Ops:   1,
		Size:  8,
	}
}

// hostilePush wraps the RMT prefetcher and models a compromised training
// pipeline: from the configured access index onward, every access attempts
// to push the corrupted model — so a direct-push stack cannot self-heal at
// its next retrain boundary, while a canaried stack must keep absorbing the
// poisoned candidates in shadow. It also records the first hostile
// rollout's terminal state: the check runs right after the OnAccess that
// resolves it, before a background retrain can stage the next rollout.
type hostilePush struct {
	*rmtprefetch.Prefetcher
	at    int
	model core.Model

	seen     int
	inflight bool
	endedAt  int
	pushes   int
	state    ctrl.CanaryState
	resolved bool
}

func (h *hostilePush) OnAccess(pid, page int64, hit bool) []int64 {
	h.seen++
	if l := h.Learner(pid); l != nil && h.seen >= h.at && !h.inflight {
		_, ended, _ := l.State()
		if err := l.Push(h.model); err == nil {
			h.inflight = true
			h.endedAt = ended
			h.pushes++
		}
	}
	out := h.Prefetcher.OnAccess(pid, page, hit)
	if h.inflight {
		st, ended, ok := h.Learner(pid).State()
		if !ok || ended > h.endedAt {
			h.inflight = false // resolved (or direct push): push again next access
			if ok && ended > h.endedAt && st.Terminal() && !h.resolved {
				h.state = st
				h.resolved = true
			}
		}
	}
	return out
}

// newCanariedPrefetcher builds the RMT stack with shadow-canaried rollouts.
func newCanariedPrefetcher(mode core.ExecMode) (*rmtprefetch.Prefetcher, *core.Kernel, error) {
	k := core.NewKernel(core.Config{CtxHistory: 4096, Mode: mode})
	plane := ctrl.New(k)
	cc := ctrl.AccuracyCanaryConfig()
	p, err := rmtprefetch.New(k, plane, rmtprefetch.Config{Canary: &cc})
	if err != nil {
		return nil, nil, err
	}
	return p, k, nil
}

// CanaryRollout runs the staged-rollout experiment.
func CanaryRollout(seed int64, mode core.ExecMode) (CanaryResult, error) {
	trace := VideoTrace(seed)
	cfg := VideoMemConfig()
	pushAt := len(trace) / 2
	var out CanaryResult

	// Clean: canaried stack, no hostile push.
	p, _, err := newCanariedPrefetcher(mode)
	if err != nil {
		return out, err
	}
	clean := memsim.Run(cfg, p.WithName("rmt-canary-clean"), trace)
	out.CleanJCT = clean.CompletionSeconds()
	out.CleanAccuracy = 100 * clean.Accuracy()

	// Canaried: the corrupted push is staged in shadow and must be rejected.
	p2, k2, err := newCanariedPrefetcher(mode)
	if err != nil {
		return out, err
	}
	hostile := &hostilePush{
		Prefetcher: p2.WithName("rmt-canary-hostile"),
		at:         pushAt,
		model:      corruptModel(8),
	}
	canaried := memsim.Run(cfg, hostile, trace)
	out.CanariedJCT = canaried.CompletionSeconds()
	out.CanariedAccuracy = 100 * canaried.Accuracy()
	out.Promotions = k2.Metrics.Counter("ctrl.canary_promotions").Load()
	out.Rejections = k2.Metrics.Counter("ctrl.canary_rejections").Load()
	out.ShadowFires = k2.Metrics.Counter("core.shadow_fires").Load()
	out.CorruptState = hostile.state

	// Uncanaried: the identical push cuts the hot path over directly.
	p3, _, err := NewRMTPrefetcher(mode)
	if err != nil {
		return out, err
	}
	direct := &hostilePush{
		Prefetcher: p3.WithName("rmt-uncanaried"),
		at:         pushAt,
		model:      corruptModel(8),
	}
	uncanaried := memsim.Run(cfg, direct, trace)
	out.UncanariedJCT = uncanaried.CompletionSeconds()
	out.UncanariedAccuracy = 100 * uncanaried.Accuracy()
	return out, nil
}
