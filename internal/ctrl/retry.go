package ctrl

import (
	"errors"
	"fmt"

	"rmtk/internal/core"
)

// This file is the control-plane half of the fault-containment loop: model
// pushes retry transient failures, and the plane exposes the kernel
// supervisor's quarantine state (the kernel itself runs the half-open probe
// loop on its firing clock — see core.Supervisor).

// ErrRetriesExhausted wraps the last failure after every attempt.
var ErrRetriesExhausted = errors.New("ctrl: retries exhausted")

// retryAttempts bounds the tries of one Retry.
const retryAttempts = 5

// Retry runs fn until it succeeds, returns a permanent error, or exhausts
// retryAttempts tries. permanent classifies errors that must not be retried
// (nil treats every error as transient). The retries are immediate: a push
// runs on the datapath's simulated event clock, which a wall-clock wait
// would not advance.
func Retry(permanent func(error) bool, fn func() error) error {
	var last error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		last = fn()
		if last == nil {
			return nil
		}
		if permanent != nil && permanent(last) {
			return last
		}
	}
	return fmt.Errorf("%w: %w", ErrRetriesExhausted, last)
}

// PushModelRetry is PushModel retried on transient swap failures (e.g. a
// communication fault on the syscall path, or an injected
// fault.ErrInjectedSwap in chaos runs). Budget violations and unknown model
// ids are permanent and fail immediately.
func (p *Plane) PushModelRetry(id int64, m core.Model, opsBudget, memBudget int64) error {
	permanent := func(err error) bool {
		return errors.Is(err, core.ErrNotFound) ||
			errors.Is(err, ErrBudgetExceeded)
	}
	return Retry(permanent, func() error {
		return p.PushModel(id, m, opsBudget, memBudget)
	})
}
