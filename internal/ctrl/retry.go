package ctrl

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rmtk/internal/core"
)

// This file is the control-plane half of the fault-containment loop: model
// pushes retry transient failures with exponential backoff and jitter, and
// the plane exposes the kernel supervisor's quarantine state (the kernel
// itself runs the half-open probe loop on its firing clock — see
// core.Supervisor).

// ErrRetriesExhausted wraps the last failure after every backoff attempt.
var ErrRetriesExhausted = errors.New("ctrl: retries exhausted")

// BackoffConfig parameterizes exponential backoff with jitter.
type BackoffConfig struct {
	// Attempts bounds total tries. <=0 selects 5.
	Attempts int
	// Base is the first delay. <=0 selects 1ms.
	Base time.Duration
	// Factor multiplies the delay each attempt. <=0 selects 2.0.
	Factor float64
	// Max caps the delay. <=0 selects 1s.
	Max time.Duration
	// JitterFrac randomizes each delay by ±this fraction. <0 selects 0.2.
	JitterFrac float64
	// Seed drives the jitter deterministically.
	Seed int64
	// Sleep replaces time.Sleep (tests pass a recorder). nil selects
	// time.Sleep.
	Sleep func(time.Duration)
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Attempts <= 0 {
		c.Attempts = 5
	}
	if c.Base <= 0 {
		c.Base = time.Millisecond
	}
	if c.Factor <= 0 {
		c.Factor = 2.0
	}
	if c.Max <= 0 {
		c.Max = time.Second
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0.2
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Retry runs fn until it succeeds, returns a permanent error, or exhausts the
// attempt budget. permanent classifies errors that must not be retried (nil
// treats every error as transient).
func Retry(cfg BackoffConfig, permanent func(error) bool, fn func() error) error {
	cfg = cfg.withDefaults()
	var rng *rand.Rand // made at the first retry: a first-try success allocates nothing
	delay := cfg.Base
	var last error
	for attempt := 0; attempt < cfg.Attempts; attempt++ {
		last = fn()
		if last == nil {
			return nil
		}
		if permanent != nil && permanent(last) {
			return last
		}
		if attempt == cfg.Attempts-1 {
			break
		}
		d := delay
		if cfg.JitterFrac > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(cfg.Seed))
			}
			j := 1 + cfg.JitterFrac*(2*rng.Float64()-1)
			d = time.Duration(float64(d) * j)
		}
		cfg.Sleep(d)
		delay = time.Duration(float64(delay) * cfg.Factor)
		if delay > cfg.Max {
			delay = cfg.Max
		}
	}
	return fmt.Errorf("%w: %w", ErrRetriesExhausted, last)
}

// PushModelRetry is PushModel with backoff on transient swap failures (e.g. a
// communication fault on the syscall path, or an injected
// fault.ErrInjectedSwap in chaos runs). Budget violations and unknown model
// ids are permanent and fail immediately.
func (p *Plane) PushModelRetry(id int64, m core.Model, opsBudget, memBudget int64, cfg BackoffConfig) error {
	permanent := func(err error) bool {
		return errors.Is(err, core.ErrNotFound) ||
			errors.Is(err, ErrBudgetExceeded)
	}
	return Retry(cfg, permanent, func() error {
		return p.PushModel(id, m, opsBudget, memBudget)
	})
}

// Quarantined lists program ids currently quarantined by the supervisor.
func (p *Plane) Quarantined() []int64 {
	sup := p.K.Supervisor()
	if sup == nil {
		return nil
	}
	return sup.Quarantined()
}

// Reinstate force-closes a program's breaker (operator override after a
// manual fix).
func (p *Plane) Reinstate(progID int64) error {
	sup := p.K.Supervisor()
	if sup == nil {
		return fmt.Errorf("ctrl: no supervisor attached")
	}
	sup.Reinstate(progID)
	return nil
}
