package core

import (
	"sync"
	"sync/atomic"
)

// This file implements the quarantine ladder: the one state machine behind
// both runtime containment layers of §3.3. A supervisor breaker
// (supervisor.go) is a two-rung ladder over one program — rung 0 open, rung 1
// closed; an engine-health record (sentinel.go) is a ladder whose rungs are
// the engine tiers of one program content. Below the rung its owner wants, a
// ladder waits out a cooldown counted in the owner's fires, then goes
// half-open one rung up: every fire probes until ProbeSuccesses consecutive
// probes pass (the owner climbs the rung) or one fails (the cooldown doubles
// and the wait restarts).

// QuarantineConfig is the ladder policy of one kernel, shared by every
// supervisor breaker (tenant supervisors included) and every engine-health
// record. The fault detectors — what trips a breaker, what demotes a tier —
// stay with SupervisorConfig and SentinelConfig.
type QuarantineConfig struct {
	// CooldownFires is how many fires pass below the wanted rung before the
	// first half-open probe. <=0 selects 64.
	CooldownFires int64
	// MaxCooldownFires caps the backoff: each failed probe doubles the
	// cooldown up to it. <=0 selects 4096.
	MaxCooldownFires int64
	// ProbeSuccesses is how many consecutive clean probes climb one rung:
	// close a breaker, re-promote one engine tier. <=0 selects 4.
	ProbeSuccesses int
}

func (c QuarantineConfig) withDefaults() QuarantineConfig {
	if c.CooldownFires <= 0 {
		c.CooldownFires = 64
	}
	if c.MaxCooldownFires <= 0 {
		c.MaxCooldownFires = 4096
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 4
	}
	return c
}

// backoffFactor multiplies the cooldown after each failed probe.
const backoffFactor = 2

// ladder is the quarantine state one breaker or health record embeds. rung is
// the only word the success path loads; the mutex serializes everything else.
type ladder struct {
	rung atomic.Int32

	mu       sync.Mutex
	q        *QuarantineConfig // the owner's (defaulted) policy; set by start
	halfOpen bool              // probing one rung up
	probeOK  int               // consecutive clean probes of this half-open phase
	cooldown int64             // current backoff, in fires
	wait     int64             // fires remaining before the next probe
}

// start binds the ladder to its policy and puts it on rung r. Called before
// the ladder is published.
func (l *ladder) start(q *QuarantineConfig, r int32) {
	l.q = q
	l.settle(r)
}

// decide resolves the rung one fire runs at when its owner wants rung want,
// for a fire that found the ladder below it. Each such fire counts against
// the cooldown; once it expires the ladder is half-open, and every fire probes
// one rung up until the phase settles. Re-checks under the lock: a concurrent
// climb may already have restored want.
func (l *ladder) decide(want int32) (rung int32, probe bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rung.Load()
	if r >= want {
		return want, false
	}
	if !l.halfOpen {
		if l.wait--; l.wait > 0 {
			return r, false
		}
		l.halfOpen = true // probeOK is zero since moveTo
	}
	return r + 1, true
}

// live reports whether a probe that ran at rung ran belongs to the
// ladder's current half-open phase. A stale probe — another already failed,
// or the ladder moved since the probe was decided — settles nothing. Caller
// holds l.mu.
func (l *ladder) live(ran int32) bool {
	return l.halfOpen && ran == l.rung.Load()+1
}

// passed counts one clean probe at rung ran and reports whether it completes
// the streak that climbs to ran; the owner then settles there. Caller holds
// l.mu.
func (l *ladder) passed(ran int32) bool {
	if !l.live(ran) {
		return false
	}
	l.probeOK++
	return l.probeOK >= l.q.ProbeSuccesses
}

// failed ends the half-open phase on a probe at rung ran that faulted: the
// cooldown backs off, the rung stays, and the wait restarts at the new
// cooldown. It reports false, and changes nothing, for a stale probe. Caller
// holds l.mu.
func (l *ladder) failed(ran int32) bool {
	if !l.live(ran) {
		return false
	}
	l.cooldown = backoff(l.cooldown, l.q.MaxCooldownFires)
	l.moveTo(l.rung.Load(), l.cooldown)
	return true
}

// settle puts the ladder on rung r with a fresh cooldown: a breaker closing,
// an engine tier demoted, promoted or restored. Caller holds l.mu (or has not
// published l).
func (l *ladder) settle(r int32) {
	l.cooldown = l.q.CooldownFires
	l.moveTo(r, l.cooldown)
}

// moveTo puts the ladder on rung r, ends any half-open phase, and waits wait
// fires before the next probe. Caller holds l.mu (or has not published l).
func (l *ladder) moveTo(r int32, wait int64) {
	l.rung.Store(r)
	l.halfOpen, l.probeOK, l.wait = false, 0, wait
}

// backoff grows a cooldown (in fires) by backoffFactor, by at least one fire,
// up to limit.
func backoff(cur, limit int64) int64 {
	next := cur * backoffFactor
	if next <= cur {
		next = cur + 1
	}
	return min(next, limit)
}
