package core

import (
	"errors"
	"fmt"

	"rmtk/internal/verifier"
)

// Standard helper ids. Subsystem-specific helpers should register at
// HelperUserBase and above.
const (
	// HelperEmit appends R1 to the invocation's emission list (e.g. a page
	// number to prefetch). Flagged as resource-allocating: the verifier
	// requires rate limiting, which the kernel enforces per invocation.
	HelperEmit = int64(1)
	// HelperCtxSum returns the sum of context field R1 across all keys,
	// noised under the kernel's differential-privacy budget (§3.3
	// "Privacy"). Fails (trapping the program) once the budget is
	// exhausted.
	HelperCtxSum = int64(2)
	// HelperCtxCount returns the number of context records, noised under
	// the DP budget.
	HelperCtxCount = int64(3)
	// HelperClampDelta clamps R1 into [-R2, R2] (feature conditioning for
	// delta histories).
	HelperClampDelta = int64(4)
	// HelperHistLen returns the history length of key R1.
	HelperHistLen = int64(5)
	// HelperUserBase is the first id available to subsystems.
	HelperUserBase = int64(100)
)

// ErrRateLimited is wrapped when an emission is dropped by the guardrail.
var ErrRateLimited = errors.New("core: emission rate limit reached")

// ErrNoPrivacyBudget is wrapped when an aggregate query is attempted without
// a configured privacy accountant.
var ErrNoPrivacyBudget = errors.New("core: no privacy accountant configured")

func registerStandardHelpers(k *Kernel) {
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("core: standard helper registration: %v", err))
		}
	}
	must(k.RegisterHelper(HelperEmit, verifier.HelperSpec{
		Name: "rmt_emit", Cost: 2, AllocatesResources: true,
	}, helperEmit))
	must(k.RegisterHelper(HelperCtxSum, verifier.HelperSpec{
		Name: "rmt_ctx_sum", Cost: 16,
	}, helperCtxSum))
	must(k.RegisterHelper(HelperCtxCount, verifier.HelperSpec{
		Name: "rmt_ctx_count", Cost: 8,
	}, helperCtxCount))
	must(k.RegisterHelper(HelperClampDelta, verifier.HelperSpec{
		Name: "rmt_clamp_delta", Cost: 1,
	}, helperClampDelta))
	must(k.RegisterHelper(HelperHistLen, verifier.HelperSpec{
		Name: "rmt_hist_len", Cost: 1,
	}, helperHistLen))
}

// helperEmit implements rmt_emit: it appends R1 to the invocation's emission
// list, enforcing the per-invocation guardrail the verifier mandates for
// resource-allocating programs. A rate-limited emission is *not* a trap: the
// helper returns 0 so a well-formed program keeps running, the drop is
// accounted, and the datapath stays within its resource envelope.
func helperEmit(k *Kernel, inv *Invocation, args *[5]int64) (int64, error) {
	if inv == nil {
		return 0, errors.New("core: rmt_emit outside an invocation")
	}
	if len(inv.emissions) >= inv.emitBudget {
		inv.rateHits++
		k.cRateLimited.Inc()
		return 0, nil
	}
	if inv.emissions == nil {
		// Sized for a typical prefetch burst up front, not doubled up to it.
		inv.emissions = make([]int64, 0, min(inv.emitBudget, 16))
	}
	inv.emissions = append(inv.emissions, args[0])
	return 1, nil
}

func helperCtxSum(k *Kernel, _ *Invocation, args *[5]int64) (int64, error) {
	if k.cfg.Privacy == nil {
		return 0, ErrNoPrivacyBudget
	}
	sum, _ := k.ctx.SumField(args[0])
	// Sensitivity: one key's field contribution; callers are expected to
	// keep bounded fields. We use a unit-scaled sensitivity of the field
	// magnitude cap provided in R2 (defaulting to 1).
	sens := float64(args[1])
	if sens <= 0 {
		sens = 1
	}
	noised, err := k.cfg.Privacy.Query(float64(sum), sens, k.cfg.QueryEpsilon)
	if err != nil {
		return 0, err
	}
	return int64(noised), nil
}

func helperCtxCount(k *Kernel, _ *Invocation, args *[5]int64) (int64, error) {
	if k.cfg.Privacy == nil {
		return 0, ErrNoPrivacyBudget
	}
	noised, err := k.cfg.Privacy.QueryCount(int64(k.ctx.Len()), k.cfg.QueryEpsilon)
	if err != nil {
		return 0, err
	}
	return int64(noised), nil
}

func helperClampDelta(_ *Kernel, _ *Invocation, args *[5]int64) (int64, error) {
	v, lim := args[0], args[1]
	if lim < 0 {
		lim = -lim
	}
	if v > lim {
		v = lim
	}
	if v < -lim {
		v = -lim
	}
	return v, nil
}

// helperHistLen implements rmt_hist_len through the calling run's record
// memo. Under write capture the run's own pending pushes count, as CtxHist
// reads them: a checked fire answers as an unchecked one would.
func helperHistLen(k *Kernel, inv *Invocation, args *[5]int64) (int64, error) {
	if inv == nil || inv.env == nil {
		return int64(k.ctx.HistLen(args[0])), nil
	}
	e := inv.env
	n := e.ctxFind(args[0]).HistLen()
	if e.wcap != nil {
		n = min(n+len(e.wcap.hist[args[0]]), k.ctx.HistCap())
	}
	return int64(n), nil
}
