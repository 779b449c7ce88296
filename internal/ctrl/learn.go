package ctrl

import (
	"errors"
	"fmt"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/ml/dt"
)

// This file is the learn loop every learned datapath shares (§3.1/§4):
// collect, train, cost-check, swap. The datapath owns its features, its
// training window (a dt.Online, which also carries the induction config) and
// the labeling of shadow predictions; a Learner owns the rest of one model's
// lifecycle — it fits the window, pushes the tree directly or stages it
// behind a shadow canary, advances the rollout on the datapath's own event
// clock, and counts the trains that went live.

// ErrRolloutInFlight refuses a push while the model's previous candidate is
// still in its rollout.
var ErrRolloutInFlight = errors.New("ctrl: rollout already in flight")

// AccuracyCanaryConfig returns the rollout gate for learned datapaths whose
// retrained candidate is *supposed* to decide differently from the model it
// replaces (a prefetcher's pages, an IO router's slow/fast verdicts): the
// divergence gate is disabled and promotion rides on labeled shadow accuracy,
// while any shadow trap still rejects.
func AccuracyCanaryConfig() CanaryConfig {
	return CanaryConfig{
		MinShadowFires:    64,
		MaxDivergenceFrac: 1,
		MaxTrapFrac:       0,
		MinShadowAccuracy: 0.5,
		MinShadowOutcomes: 32,
		MaxStaticOps:      1 << 20,
	}
}

// noSleep keeps a direct push's retries off the wall clock: simulated runs
// never block, and the backoff schedule stays deterministic.
var noSleep = BackoffConfig{Sleep: func(time.Duration) {}}

// Learner drives the retrain → push lifecycle of model id, which a program
// on hook consults. Without a canary policy a push is a cost-checked swap,
// retried on transient failure; with one it is a staged rollout, of which at
// most one is in flight. A Learner is driven from its datapath's event loop
// and is not safe for concurrent use.
type Learner struct {
	p        *Plane
	hook     string
	id       int64
	ops, mem int64
	gate     *CanaryConfig
	label    func(key, verdict int64, emissions []int64)

	c         *Canary // the in-flight rollout, nil when none
	lastState CanaryState
	ended     int
	trains    int
}

// NewLearner returns the learner for model id, pushing trees under the
// opsBudget/memBudget cost check. A non-nil gate stages every
// push behind a shadow canary on hook; label, when non-nil, is called with
// each staged candidate's shadow runs that did not trap, so the datapath can
// label them against the outcomes it later observes (Label).
func (p *Plane) NewLearner(hook string, id int64, opsBudget, memBudget int64,
	gate *CanaryConfig, label func(key, verdict int64, emissions []int64)) *Learner {
	return &Learner{p: p, hook: hook, id: id, ops: opsBudget, mem: memBudget, gate: gate, label: label}
}

// Train fits a tree to the training window and pushes it. A retrain while a
// rollout is in flight is skipped: the next retrain produces a fresher
// candidate.
func (l *Learner) Train(window *dt.Online) error {
	if l.c != nil {
		return nil
	}
	tree, err := window.Fit()
	if err != nil {
		return err
	}
	return l.Push(core.NewTreeModel(tree))
}

// Push pushes candidate m: a direct push counts a train at once, a staged
// one when its candidate goes live. It fails with ErrRolloutInFlight while a
// rollout is in flight, and a budget rejection satisfies
// errors.Is(err, ErrBudgetExceeded) on either path.
func (l *Learner) Push(m core.Model) error {
	if l.c != nil {
		return fmt.Errorf("%w: model %d", ErrRolloutInFlight, l.id)
	}
	if l.gate == nil {
		if err := l.p.PushModelRetry(l.id, m, l.ops, l.mem, noSleep); err != nil {
			return err
		}
		l.trains++
		return nil
	}
	c, err := l.p.PushModelCanary(l.hook, l.id, m, l.ops, l.mem, *l.gate)
	if err != nil {
		return fmt.Errorf("ctrl: staging a canary on %s: %w", l.hook, err)
	}
	if l.label != nil {
		c.Shadow().SetOnResult(func(key, verdict int64, emissions []int64, trapped bool) {
			if !trapped {
				l.label(key, verdict, emissions)
			}
		})
	}
	l.c = c
	return nil
}

// InFlight reports whether a rollout is in flight.
func (l *Learner) InFlight() bool { return l.c != nil }

// Label records whether one shadow prediction of the in-flight candidate
// came true. It is a no-op with no rollout in flight.
func (l *Learner) Label(correct bool) {
	if l.c != nil {
		l.c.RecordShadowOutcome(correct)
	}
}

// Advance moves the in-flight rollout one event on the datapath's clock. It
// reports whether the rollout ended on this event, when the datapath drops
// its pending labels.
func (l *Learner) Advance() (ended bool) {
	if l.c == nil {
		return false
	}
	st := l.c.Advance()
	if !st.Terminal() {
		return false
	}
	if st == CanaryPromoted {
		l.trains++
	}
	l.c, l.lastState = nil, st
	l.ended++
	return true
}

// State reports the rollout state: the in-flight canary's if one is active,
// otherwise the last terminal state. ok is false if no rollout was ever
// staged. Ended counts completed rollouts.
func (l *Learner) State() (st CanaryState, ended int, ok bool) {
	if l.c != nil {
		return l.c.State(), l.ended, true
	}
	return l.lastState, l.ended, l.ended > 0
}

// Trains reports how many pushed models went live.
func (l *Learner) Trains() int { return l.trains }
