package ctrl

import (
	"fmt"
	"sync"

	"rmtk/internal/core"
	"rmtk/internal/wal"
)

// This file implements staged rollout: a candidate model is first run in
// shadow against live hook traffic (core/shadow.go) and promoted only after
// its shadow record clears configurable gates. The lifecycle is
//
//	stage → shadow → (gates) → promoted
//	                    ↓ fail
//	                 rejected
//
// All timing is event-driven (shadow fires, labeled outcomes), never
// wall-clock: canary decisions are deterministic under the repo's seeded
// virtual-clock workloads.

// CanaryState is the rollout state of one candidate.
type CanaryState int

const (
	// CanaryShadowing: the candidate runs in shadow; gates not yet cleared.
	CanaryShadowing CanaryState = iota
	// CanaryPromoted: the gates cleared and the candidate is live.
	CanaryPromoted
	// CanaryRejected: the candidate failed a shadow gate and never went live.
	CanaryRejected
)

// String names the state.
func (s CanaryState) String() string {
	switch s {
	case CanaryShadowing:
		return "shadowing"
	case CanaryPromoted:
		return "promoted"
	case CanaryRejected:
		return "rejected"
	default:
		return fmt.Sprintf("canarystate(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s CanaryState) Terminal() bool {
	return s != CanaryShadowing
}

// CanaryConfig parameterizes the rollout gates. The zero value is the
// strictest sensible policy: no shadow traps, no divergence from the
// incumbent, no accuracy gate.
type CanaryConfig struct {
	// MinShadowFires is how many shadow firings must accumulate before the
	// gates are evaluated. <=0 selects 256.
	MinShadowFires int64
	// MaxDivergenceFrac is the ceiling on the fraction of shadow fires whose
	// verdict or emissions differed from the incumbent's. 0 means the
	// candidate must agree exactly; 1 disables the gate (datapaths whose
	// candidates are *supposed* to decide differently — e.g. a retrained
	// prefetcher — gate on shadow accuracy instead).
	MaxDivergenceFrac float64
	// MaxTrapFrac is the ceiling on the fraction of shadow fires that
	// trapped. 0 means any trap rejects; 1 disables the gate.
	MaxTrapFrac float64
	// MinShadowAccuracy, when >0, requires the labeled shadow outcomes
	// (RecordShadowOutcome) to reach this accuracy before promotion.
	MinShadowAccuracy float64
	// MinShadowOutcomes is how many labeled outcomes the accuracy gate
	// needs; shadowing continues until they accumulate. <=0 selects 64.
	MinShadowOutcomes int64
	// MaxStaticOps, when >0, rejects a model canary at staging if the
	// candidate's ML ops (its Cost) exceed it.
	MaxStaticOps int64
}

func (c CanaryConfig) withDefaults() CanaryConfig {
	if c.MinShadowFires <= 0 {
		c.MinShadowFires = 256
	}
	if c.MinShadowOutcomes <= 0 {
		c.MinShadowOutcomes = 64
	}
	return c
}

// Canary drives one candidate through the rollout lifecycle. Advance is
// called from the datapath's event loop (e.g. once per hook event); it is
// cheap when nothing is ready to change state.
type Canary struct {
	p    *Plane
	cfg  CanaryConfig
	hook string

	sh *core.Shadow
	// promote is the committed reconfiguration (Bump set) the lifecycle
	// submits.
	promote *mut

	mu          sync.Mutex
	state       CanaryState
	shadowHits  int64
	shadowTotal int64
	gateErr     error
}

// PushModelCanary stages candidate as a replacement for model id behind a
// shadow canary on hook: the candidate is budget-checked immediately, then
// shadow-executed on live traffic until cfg's gates pass, then promoted. The
// caller drives the lifecycle by calling Advance from its event loop and
// labels shadow predictions via RecordShadowOutcome when using the accuracy
// gate.
func (p *Plane) PushModelCanary(hook string, id int64, candidate core.Model, opsBudget, memBudget int64, cfg CanaryConfig) (*Canary, error) {
	if err := checkModelBudgets(candidate, opsBudget, memBudget); err != nil {
		return nil, fmt.Errorf("model %d: %w", id, err)
	}
	if ops, _ := candidate.Cost(); cfg.MaxStaticOps > 0 && ops > cfg.MaxStaticOps {
		return nil, fmt.Errorf("%w: model %d: %d ops > %d", ErrStaticCost, id, ops, cfg.MaxStaticOps)
	}
	if _, err := p.K.Model(id); err != nil {
		return nil, err
	}
	if p.Durable() {
		// Fail fast: a candidate with no durable codec could never be
		// promoted (promotion must be logged), so reject it before any
		// shadow traffic is spent on it.
		if _, err := encodeModel(candidate); err != nil {
			return nil, err
		}
	}
	sh := core.NewModelShadow(hook, id, candidate)
	if err := p.K.AttachShadow(sh); err != nil {
		return nil, err
	}
	c := &Canary{
		p: p, cfg: cfg.withDefaults(), hook: hook, sh: sh,
		promote: &mut{rec: &wal.Record{Kind: wal.KindPushModel, ModelID: id, Bump: true}, model: candidate},
	}
	p.K.Metrics.Counter("ctrl.canary_staged").Inc()
	return c, nil
}

// Shadow returns the attached shadow (datapaths hang their labeling
// callback off it).
func (c *Canary) Shadow() *core.Shadow { return c.sh }

// State reports the current lifecycle state.
func (c *Canary) State() CanaryState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// RecordShadowOutcome labels one shadow prediction as correct or not (e.g.
// a shadow-predicted page was — or was never — actually accessed). Feeds
// the MinShadowAccuracy gate.
func (c *Canary) RecordShadowOutcome(correct bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shadowTotal++
	if correct {
		c.shadowHits++
	}
}

// Advance evaluates the lifecycle against current statistics and performs
// any due transition (gate evaluation, then promotion or rejection). It
// returns the resulting state. Call it from the datapath event loop.
func (c *Canary) Advance() CanaryState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == CanaryShadowing {
		c.advanceShadowing()
	}
	return c.state
}

// evalGatesLocked evaluates the shadow gates against current statistics
// without transitioning any state: pending means not enough evidence has
// accumulated yet; otherwise pass says whether every gate cleared, and
// reason explains the first failure. Caller holds c.mu.
func (c *Canary) evalGatesLocked() (pass, pending bool, reason error) {
	rep := c.sh.Report()
	if rep.Fires < c.cfg.MinShadowFires {
		return false, true, nil
	}
	if frac := rep.TrapFrac(); frac > c.cfg.MaxTrapFrac {
		return false, false, fmt.Errorf("ctrl: canary trap rate %.3f > %.3f over %d shadow fires",
			frac, c.cfg.MaxTrapFrac, rep.Fires)
	}
	if frac := rep.DivergenceFrac(); frac > c.cfg.MaxDivergenceFrac {
		return false, false, fmt.Errorf("ctrl: canary divergence %.3f > %.3f over %d shadow fires",
			frac, c.cfg.MaxDivergenceFrac, rep.Fires)
	}
	if c.cfg.MinShadowAccuracy > 0 {
		if c.shadowTotal < c.cfg.MinShadowOutcomes {
			return false, true, nil // keep shadowing until enough labels accumulate
		}
		acc := float64(c.shadowHits) / float64(c.shadowTotal)
		if acc < c.cfg.MinShadowAccuracy {
			return false, false, fmt.Errorf("ctrl: canary shadow accuracy %.3f < %.3f over %d labeled outcomes",
				acc, c.cfg.MinShadowAccuracy, c.shadowTotal)
		}
	}
	return true, false, nil
}

func (c *Canary) advanceShadowing() {
	pass, pending, reason := c.evalGatesLocked()
	if pending {
		return
	}
	if !pass {
		c.reject(reason)
		return
	}
	// Gates cleared: go live.
	c.p.K.DetachShadow(c.hook)
	c.p.commitMu.Lock()
	err := c.p.submit(c.promote)
	c.p.commitMu.Unlock()
	if err != nil {
		c.state = CanaryRejected
		c.gateErr = fmt.Errorf("ctrl: canary promotion failed: %w", err)
		c.p.K.Metrics.Counter("ctrl.canary_rejections").Inc()
		return
	}
	c.p.K.Metrics.Counter("ctrl.canary_promotions").Inc()
	c.state = CanaryPromoted
}

// reject detaches the shadow and finalizes a gate failure.
func (c *Canary) reject(reason error) {
	c.p.K.DetachShadow(c.hook)
	c.state = CanaryRejected
	c.gateErr = reason
	c.p.K.Metrics.Counter("ctrl.canary_rejections").Inc()
}
