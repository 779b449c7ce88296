package ctrl

import (
	"fmt"
	"sync"

	"rmtk/internal/core"
	"rmtk/internal/verifier"
	"rmtk/internal/wal"
)

// This file implements staged rollout: a candidate model (or program) is
// first run in shadow against live hook traffic (core/shadow.go), promoted
// only after its shadow record clears configurable gates, watched through a
// post-promotion probation window, and automatically rolled back to the
// prior version if probation regresses. The lifecycle is
//
//	stage → shadow → (gates) → promote → probation → promoted
//	                    ↓ fail                ↓ regress
//	                 rejected             rolled back
//
// All timing is event-driven (shadow fires, monitor outcomes), never
// wall-clock: canary decisions are deterministic under the repo's seeded
// virtual-clock workloads.

// CanaryState is the rollout state of one candidate.
type CanaryState int

const (
	// CanaryShadowing: the candidate runs in shadow; gates not yet cleared.
	CanaryShadowing CanaryState = iota
	// CanaryProbation: promoted to live, still watched for regression.
	CanaryProbation
	// CanaryPromoted: probation passed; the rollout is complete.
	CanaryPromoted
	// CanaryRejected: the candidate failed a shadow gate and never went live.
	CanaryRejected
	// CanaryRolledBack: the candidate regressed during probation and the
	// prior version was restored.
	CanaryRolledBack
	// CanaryReleased: a gate-only canary (StageProgramGate) was released by
	// its controller; the shadow is detached and no verdict was rendered
	// here — the fleet controller owns the commit decision.
	CanaryReleased
)

// String names the state.
func (s CanaryState) String() string {
	switch s {
	case CanaryShadowing:
		return "shadowing"
	case CanaryProbation:
		return "probation"
	case CanaryPromoted:
		return "promoted"
	case CanaryRejected:
		return "rejected"
	case CanaryRolledBack:
		return "rolled-back"
	case CanaryReleased:
		return "released"
	default:
		return fmt.Sprintf("canarystate(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s CanaryState) Terminal() bool {
	return s == CanaryPromoted || s == CanaryRejected || s == CanaryRolledBack ||
		s == CanaryReleased
}

// CanaryConfig parameterizes the rollout gates. The zero value is the
// strictest sensible policy: no shadow traps, no divergence from the
// incumbent, no accuracy gate, one monitor window of probation.
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
	// ProbationOutcomes is how many post-promotion AccuracyMonitor outcomes
	// must pass without a degraded window before the canary graduates. <=0
	// selects one full monitor window. Without a monitor attached to the
	// model, probation completes immediately.
	ProbationOutcomes int
	// MaxStaticSteps, when >0, rejects a program canary at staging if the
	// candidate's admission report proves a worst-case instruction count
	// above it. The bound comes from the verifier's interval analysis —
	// statically dead branches are excluded — so policies can be tightened
	// to the real worst case rather than the structural one.
	MaxStaticSteps int64
	// MaxStaticOps, when >0, rejects a canary at staging if the candidate's
	// statically proven worst-case ML ops (program report MLOps, or model
	// Cost) exceed it.
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

	// gateOnly canaries (StageProgramGate) evaluate gates but never promote
	// or roll back — a fleet controller reads the verdict and owns the
	// replicated commit.
	gateOnly bool

	sh       *core.Shadow
	promote  func() error
	rollback func() error
	monitor  *AccuracyMonitor

	mu          sync.Mutex
	state       CanaryState
	shadowHits  int64
	shadowTotal int64
	gateErr     error

	baseDegrades int
	baseOutcomes int
	baseWindows  int
}

// PushModelCanary stages candidate as a replacement for model id behind a
// shadow canary on hook: the candidate is budget-checked immediately, then
// shadow-executed on live traffic until cfg's gates pass, then promoted with
// the displaced version kept for rollback, then watched through probation
// via the monitor attached to the model (if any). The caller drives the
// lifecycle by calling Advance from its event loop and labels shadow
// predictions via RecordShadowOutcome when using the accuracy gate.
func (p *Plane) PushModelCanary(hook string, id int64, candidate core.Model, opsBudget, memBudget int64, cfg CanaryConfig) (*Canary, error) {
	ops, bytes := candidate.Cost()
	if opsBudget > 0 && ops > opsBudget {
		return nil, fmt.Errorf("%w: %w: model %d: %d > %d", ErrBudgetExceeded, verifier.ErrOpsBudget, id, ops, opsBudget)
	}
	if memBudget > 0 && bytes > memBudget {
		return nil, fmt.Errorf("%w: %w: model %d: %d > %d", ErrBudgetExceeded, verifier.ErrMemBudget, id, bytes, memBudget)
	}
	if cfg.MaxStaticOps > 0 && ops > cfg.MaxStaticOps {
		return nil, fmt.Errorf("%w: model %d: %d ops > %d", ErrStaticCost, id, ops, cfg.MaxStaticOps)
	}
	if _, err := p.K.Model(id); err != nil {
		return nil, err
	}
	if p.wal != nil {
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
		monitor: p.Monitor(id),
		promote: func() error {
			// Budgets already admitted; log as a committed reconfiguration.
			return p.pushModelRec(id, candidate, 0, 0, true)
		},
		rollback: func() error { return p.rollbackModelRec(id, true) },
	}
	p.K.Metrics.Counter("ctrl.canary_staged").Inc()
	return c, nil
}

// PushProgramCanary stages candidate program candID as a replacement for
// program incID behind a shadow canary on hook. Promotion atomically
// retargets every ActionProgram entry in tableName from incID to candID;
// rollback retargets them back. Program canaries gate on divergence and
// traps (there is no model accuracy to monitor), so a candidate that agrees
// with — or deliberately improves on — the incumbent should be gated with an
// appropriate MaxDivergenceFrac.
func (p *Plane) PushProgramCanary(hook, tableName string, incID, candID int64, cfg CanaryConfig) (*Canary, error) {
	if _, _, err := p.K.TableByName(tableName); err != nil {
		return nil, err
	}
	if cfg.MaxStaticSteps > 0 || cfg.MaxStaticOps > 0 {
		rep, err := p.K.ProgramReport(candID)
		if err != nil {
			return nil, err
		}
		if cfg.MaxStaticSteps > 0 && rep.MaxSteps > cfg.MaxStaticSteps {
			return nil, fmt.Errorf("%w: program %d: %d steps > %d",
				ErrStaticCost, candID, rep.MaxSteps, cfg.MaxStaticSteps)
		}
		if cfg.MaxStaticOps > 0 && rep.MLOps > cfg.MaxStaticOps {
			return nil, fmt.Errorf("%w: program %d: %d ML ops > %d",
				ErrStaticCost, candID, rep.MLOps, cfg.MaxStaticOps)
		}
	}
	sh := core.NewProgramShadow(hook, candID)
	if err := p.K.AttachShadow(sh); err != nil {
		return nil, err
	}
	retarget := func(from, to int64) func() error {
		return func() error {
			if p.wal == nil {
				return p.applyRetarget(tableName, from, to)
			}
			rec := &wal.Record{Kind: wal.KindRetarget, Table: tableName, From: from, To: to, Bump: true}
			return p.logApply(rec, func() error { return p.applyRetarget(tableName, from, to) })
		}
	}
	c := &Canary{
		p: p, cfg: cfg.withDefaults(), hook: hook, sh: sh,
		promote:  retarget(incID, candID),
		rollback: retarget(candID, incID),
	}
	p.K.Metrics.Counter("ctrl.canary_staged").Inc()
	return c, nil
}

// StageProgramGate attaches candidate program candID in shadow on hook and
// returns a gate-only canary: EvalGates renders the verdict, but promotion
// and rollback never happen here — a fleet rollout controller
// (internal/cluster) reads the per-node verdicts and commits the retarget
// through the replicated log, so every node's state change flows through
// the same shipped records. Static-cost ceilings reject at staging exactly
// as PushProgramCanary does; Release detaches the shadow when the
// controller is done.
func (p *Plane) StageProgramGate(hook string, candID int64, cfg CanaryConfig) (*Canary, error) {
	if _, err := p.K.Program(candID); err != nil {
		return nil, err
	}
	if cfg.MaxStaticSteps > 0 || cfg.MaxStaticOps > 0 {
		rep, err := p.K.ProgramReport(candID)
		if err != nil {
			return nil, err
		}
		if cfg.MaxStaticSteps > 0 && rep.MaxSteps > cfg.MaxStaticSteps {
			return nil, fmt.Errorf("%w: program %d: %d steps > %d",
				ErrStaticCost, candID, rep.MaxSteps, cfg.MaxStaticSteps)
		}
		if cfg.MaxStaticOps > 0 && rep.MLOps > cfg.MaxStaticOps {
			return nil, fmt.Errorf("%w: program %d: %d ML ops > %d",
				ErrStaticCost, candID, rep.MLOps, cfg.MaxStaticOps)
		}
	}
	sh := core.NewProgramShadow(hook, candID)
	if err := p.K.AttachShadow(sh); err != nil {
		return nil, err
	}
	c := &Canary{p: p, cfg: cfg.withDefaults(), hook: hook, sh: sh, gateOnly: true}
	p.K.Metrics.Counter("ctrl.canary_staged").Inc()
	return c, nil
}

// Release detaches the shadow of a still-shadowing canary without
// rendering a verdict — the terminal transition of a gate-only canary once
// its controller has read EvalGates. Terminal canaries are left alone.
func (c *Canary) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.Terminal() {
		return
	}
	if c.state == CanaryShadowing {
		c.p.K.DetachShadow(c.hook)
	}
	c.state = CanaryReleased
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

// GateErr explains a rejection or rollback, or nil.
func (c *Canary) GateErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gateErr
}

// Report returns the shadow-execution statistics accumulated so far.
func (c *Canary) Report() core.CanaryReport { return c.sh.Report() }

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

// Abort cancels the rollout: a shadowing canary is detached and rejected; a
// canary in probation is rolled back. Terminal canaries are left alone.
func (c *Canary) Abort() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case CanaryShadowing:
		c.p.K.DetachShadow(c.hook)
		c.state = CanaryRejected
		c.gateErr = fmt.Errorf("ctrl: canary aborted")
		c.p.K.Metrics.Counter("ctrl.canary_rejections").Inc()
		return nil
	case CanaryProbation:
		return c.doRollback(fmt.Errorf("ctrl: canary aborted during probation"))
	default:
		return nil
	}
}

// Advance evaluates the lifecycle against current statistics and performs
// any due transition (gate evaluation, promotion, rollback, graduation). It
// returns the resulting state. Call it from the datapath event loop.
func (c *Canary) Advance() CanaryState {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case CanaryShadowing:
		c.advanceShadowing()
	case CanaryProbation:
		c.advanceProbation()
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

// EvalGates evaluates the shadow gates without performing any lifecycle
// transition — the read-only verdict a fleet rollout controller polls on a
// gate-only canary. pending means more shadow evidence is needed; a
// non-nil reason explains a failed gate.
func (c *Canary) EvalGates() (pass, pending bool, reason error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != CanaryShadowing {
		return false, false, fmt.Errorf("ctrl: canary is %s, not shadowing", c.state)
	}
	return c.evalGatesLocked()
}

func (c *Canary) advanceShadowing() {
	if c.gateOnly {
		return // the fleet controller polls EvalGates and owns transitions
	}
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
	err := c.promote()
	if err == nil {
		c.p.version.Add(1)
	}
	c.p.commitMu.Unlock()
	if err != nil {
		c.state = CanaryRejected
		c.gateErr = fmt.Errorf("ctrl: canary promotion failed: %w", err)
		c.p.K.Metrics.Counter("ctrl.canary_rejections").Inc()
		return
	}
	c.p.K.Metrics.Counter("ctrl.canary_promotions").Inc()
	if c.monitor == nil {
		c.state = CanaryPromoted
		return
	}
	c.state = CanaryProbation
	c.baseDegrades = c.monitor.Degrades()
	c.baseOutcomes = c.monitor.TotalOutcomes()
	c.baseWindows = c.monitor.Windows()
}

func (c *Canary) advanceProbation() {
	if c.monitor.Degrades() > c.baseDegrades {
		_ = c.doRollback(fmt.Errorf("ctrl: accuracy degraded during probation (window accuracy %.3f)",
			c.monitor.LastWindowAccuracy()))
		return
	}
	need := c.cfg.ProbationOutcomes
	if need <= 0 {
		need = c.monitor.Window
	}
	if c.monitor.TotalOutcomes()-c.baseOutcomes >= need && c.monitor.Windows() > c.baseWindows {
		c.state = CanaryPromoted
	}
}

// reject detaches the shadow and finalizes a gate failure.
func (c *Canary) reject(reason error) {
	c.p.K.DetachShadow(c.hook)
	c.state = CanaryRejected
	c.gateErr = reason
	c.p.K.Metrics.Counter("ctrl.canary_rejections").Inc()
}

// doRollback restores the prior version. Caller holds c.mu.
func (c *Canary) doRollback(reason error) error {
	c.p.commitMu.Lock()
	err := c.rollback()
	if err == nil {
		c.p.version.Add(1)
	}
	c.p.commitMu.Unlock()
	if err != nil {
		return err
	}
	c.state = CanaryRolledBack
	c.gateErr = reason
	c.p.K.Metrics.Counter("ctrl.canary_rollbacks").Inc()
	return nil
}
