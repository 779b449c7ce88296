package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"rmtk/internal/telemetry"
)

// This file implements the kernel's fault-containment supervisor: a
// per-program circuit breaker that quarantines a misbehaving learned datapath
// and routes its hook to a registered baseline fallback policy, then probes
// it half-open with exponential backoff until sustained success re-admits it.
// It is the runtime half of §3.3's safety argument — the verifier admits
// programs statically, the supervisor contains them dynamically, so a learned
// datapath is never worse than the stock heuristic it replaced.

// BreakerState is the circuit-breaker state of one program.
type BreakerState int

const (
	// BreakerClosed: the program runs normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the program is quarantined; its hook uses the fallback.
	BreakerOpen
	// BreakerHalfOpen: the program is being probed; each fire runs it and a
	// failure re-opens the breaker with a longer cooldown.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Supervisor SLO / quarantine sentinels.
var (
	// ErrStepSLO marks a fire whose executed step count exceeded the
	// configured per-fire SLO.
	ErrStepSLO = errors.New("core: per-fire step SLO violated")
	// ErrLatencySLO marks a fire whose charged latency exceeded the
	// configured per-fire SLO.
	ErrLatencySLO = errors.New("core: per-fire latency SLO violated")
	// ErrQuarantined is reported when a quarantined program is addressed
	// directly (e.g. RunProgramByName).
	ErrQuarantined = errors.New("core: program quarantined by supervisor")
)

// SupervisorConfig parameterizes the breaker state machine.
type SupervisorConfig struct {
	// TripConsecutive trips the breaker after this many consecutive fire
	// failures. <=0 selects 3.
	TripConsecutive int
	// WindowK / WindowM trip the breaker when K of the last M fires failed
	// (catching intermittent faults that never run consecutively). 0
	// disables; WindowM is clamped to >= WindowK.
	WindowK int
	WindowM int
	// StepSLO fails a fire whose executed VM steps exceed it. 0 disables.
	StepSLO int64
	// LatencySLONs fails a fire whose charged latency exceeds it. 0
	// disables.
	LatencySLONs int64
	// CooldownFires is how many fires of the program's hook pass in
	// quarantine before the first half-open probe. <=0 selects 64.
	CooldownFires int64
	// BackoffFactor multiplies the cooldown after each failed probe.
	// <=0 selects 2.0.
	BackoffFactor float64
	// MaxCooldownFires caps the backoff. <=0 selects 4096.
	MaxCooldownFires int64
	// JitterFrac randomizes each cooldown by ±this fraction (seeded,
	// deterministic). <0 selects 0.1.
	JitterFrac float64
	// HalfOpenSuccesses is how many consecutive probe successes close the
	// breaker. <=0 selects 4.
	HalfOpenSuccesses int
	// Seed drives the jitter.
	Seed int64
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.TripConsecutive <= 0 {
		c.TripConsecutive = 3
	}
	if c.WindowK <= 0 {
		c.WindowM = 0
	} else if c.WindowM < c.WindowK {
		c.WindowM = c.WindowK
	}
	if c.CooldownFires <= 0 {
		c.CooldownFires = 64
	}
	if c.BackoffFactor <= 0 {
		c.BackoffFactor = 2.0
	}
	if c.MaxCooldownFires <= 0 {
		c.MaxCooldownFires = 4096
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0.1
	}
	if c.HalfOpenSuccesses <= 0 {
		c.HalfOpenSuccesses = 4
	}
	return c
}

// Decision is the supervisor's routing verdict for one program fire.
type Decision int

const (
	// DecisionRun executes the program normally.
	DecisionRun Decision = iota
	// DecisionProbe executes the program as a half-open probe.
	DecisionProbe
	// DecisionFallback skips the program and uses the hook's fallback.
	DecisionFallback
)

// breaker is the per-program containment state. The closed-breaker success
// path — the overwhelmingly common case on a healthy datapath — is lock-free:
// state, consecFails and the K-of-M window are atomics, and a success that
// finds nothing to forget writes nothing. b.mu serializes everything else
// (failures, open/half-open routing, the operator API), so trip/probe/cooldown
// decisions are the single-lock machine's on every one-goroutine schedule. A
// nil *breaker is an unsupervised program: allow always says run.
type breaker struct {
	s           *Supervisor
	state       atomic.Int32 // BreakerState
	consecFails atomic.Int32

	// The K-of-M window is a ring of outcome bits (1 = failed): seq counts the
	// outcomes pushed (slot = seq mod M, and seq >= M means the ring has
	// filled), fails is the ring's popcount so nobody scans it. A full
	// all-zero ring is the same ring after one more success, which is why the
	// success path may skip the push.
	seq   atomic.Uint64
	fails atomic.Int32
	bits  []atomic.Uint64

	mu       sync.Mutex
	cooldown int64 // current backoff, in hook fires
	wait     int64 // fires remaining before the next probe
	probeOK  int
	lastErr  error
}

// Supervisor owns the breakers of every supervised program on one kernel (or
// one tenant). A breaker is created when a route snapshot first binds its
// program and is never replaced: breaker identity is per (supervisor, program
// id) and survives republish. Fires reach breakers through the snapshot's
// bindings; the id-keyed methods below go through a copy-on-write table.
type Supervisor struct {
	cfg     SupervisorConfig
	metrics *telemetry.Registry

	mu    sync.Mutex                 // serializes bind
	progs atomic.Pointer[[]*breaker] // indexed by program id; nil = never bound

	rngMu sync.Mutex // jitter source; cold path (breaker opens) only
	rng   *rand.Rand

	trips, fallbacks, probes, recoveries               atomic.Int64
	cTrips, cFallbacks, cProbes, cRecoveries, cReopens *telemetry.Counter
}

// newSupervisor builds a supervisor bound to a metrics registry.
func newSupervisor(cfg SupervisorConfig, metrics *telemetry.Registry) *Supervisor {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:         cfg,
		metrics:     metrics,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		cTrips:      metrics.Bind("supervisor.trips"),
		cFallbacks:  metrics.Bind("supervisor.fallbacks"),
		cProbes:     metrics.Bind("supervisor.probes"),
		cRecoveries: metrics.Bind("supervisor.recoveries"),
		cReopens:    metrics.Bind("supervisor.reopens"),
	}
	s.progs.Store(new([]*breaker))
	return s
}

// breakerOf resolves a program's breaker lock-free (nil for ids no snapshot
// of this supervisor ever bound).
func (s *Supervisor) breakerOf(progID int64) *breaker {
	if t := *s.progs.Load(); uint64(progID) < uint64(len(t)) {
		return t[progID]
	}
	return nil
}

// bind returns progID's breaker, creating it on first use. Only snapshot
// publication calls it, so the table grows with the kernel's dense id space.
func (s *Supervisor) bind(progID int64) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.breakerOf(progID); b != nil {
		return b
	}
	old := *s.progs.Load()
	tab := make([]*breaker, max(len(old), int(progID)+1))
	copy(tab, old)
	tab[progID] = &breaker{s: s, cooldown: s.cfg.CooldownFires, bits: make([]atomic.Uint64, (s.cfg.WindowM+63)/64)}
	s.progs.Store(&tab)
	return tab[progID]
}

// Allow decides how the next fire of progID is routed. Open breakers count
// the call against their cooldown — the hook's firing rate is the
// supervisor's clock, so quarantine and backoff are deterministic in
// simulation. A closed breaker is recognized without taking any lock.
func (s *Supervisor) Allow(progID int64) Decision { return s.breakerOf(progID).allow() }

func (b *breaker) allow() Decision {
	if b.closed() {
		return DecisionRun
	}
	return b.allowSlow()
}

// closed reports a closed (or absent) breaker: one load, and no tick of the
// cooldown clock — which is what lets a cache replay ask before it commits.
func (b *breaker) closed() bool {
	return b == nil || BreakerState(b.state.Load()) == BreakerClosed
}

func (b *breaker) allowSlow() Decision {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed: // transitioned while we blocked on the lock
		return DecisionRun
	case BreakerHalfOpen:
		return DecisionProbe
	default: // BreakerOpen
		if b.wait--; b.wait > 0 {
			b.s.fallbacks.Add(1)
			b.s.cFallbacks.Inc()
			return DecisionFallback
		}
		b.state.Store(int32(BreakerHalfOpen)) // probeOK is zero since open()
		return DecisionProbe
	}
}

// RecordRun feeds the outcome of one executed fire (normal or probe) back
// into the breaker. steps and latencyNs are checked against the configured
// SLOs even when runErr is nil. It returns the effective failure (nil on
// success) and whether this outcome tripped the breaker. A success on a
// closed breaker takes no lock and, once the window is full and clean, writes
// nothing.
func (s *Supervisor) RecordRun(progID int64, hook string, steps, latencyNs int64, runErr error) (failure error, tripped bool) {
	if b := s.breakerOf(progID); b != nil {
		return b.record(hook, steps, latencyNs, runErr)
	}
	return runErr, false
}

func (b *breaker) record(hook string, steps, latencyNs int64, runErr error) (failure error, tripped bool) {
	s := b.s
	failure = runErr
	if failure == nil && s.cfg.StepSLO > 0 && steps > s.cfg.StepSLO {
		failure = fmt.Errorf("%w: %d > %d steps", ErrStepSLO, steps, s.cfg.StepSLO)
	}
	if failure == nil && s.cfg.LatencySLONs > 0 && latencyNs > s.cfg.LatencySLONs {
		failure = fmt.Errorf("%w: %dns > %dns", ErrLatencySLO, latencyNs, s.cfg.LatencySLONs)
	}
	if failure == nil && BreakerState(b.state.Load()) == BreakerClosed {
		if b.consecFails.Load() != 0 {
			b.consecFails.Store(0)
		}
		if len(b.bits) > 0 && (b.fails.Load() != 0 || b.seq.Load() < uint64(s.cfg.WindowM)) {
			b.push(false)
		}
		return nil, false
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.bits) > 0 {
		b.push(failure != nil)
	}
	state := BreakerState(b.state.Load())
	if state == BreakerHalfOpen {
		s.probes.Add(1)
		s.cProbes.Inc()
	}
	if failure == nil {
		b.consecFails.Store(0)
		if state == BreakerHalfOpen {
			if b.probeOK++; b.probeOK >= s.cfg.HalfOpenSuccesses {
				b.state.Store(int32(BreakerClosed))
				b.cooldown = s.cfg.CooldownFires
				b.lastErr = nil
				s.recoveries.Add(1)
				s.cRecoveries.Inc()
			}
		}
		return nil, false
	}

	b.lastErr = failure
	s.metrics.Counter("supervisor.errors." + hook).Inc()
	s.metrics.Histogram("supervisor.fail_steps." + hook).Observe(steps)

	if state == BreakerHalfOpen {
		// Failed probe: back off exponentially (with jitter) and re-open.
		b.cooldown = backoff(b.cooldown, s.cfg.BackoffFactor, s.cfg.MaxCooldownFires)
		b.open()
		s.cReopens.Inc()
		return failure, false
	}

	consec := int(b.consecFails.Add(1))
	windowed := len(b.bits) > 0 && b.seq.Load() >= uint64(s.cfg.WindowM) && int(b.fails.Load()) >= s.cfg.WindowK
	if state == BreakerClosed && (consec >= s.cfg.TripConsecutive || windowed) {
		b.trip()
		return failure, true
	}
	return failure, false
}

// push records one outcome in the window ring: the fetch-add claims the slot,
// the CAS flips its bit if the outcome differs from the one it evicts.
func (b *breaker) push(failed bool) {
	slot := (b.seq.Add(1) - 1) % uint64(b.s.cfg.WindowM)
	w, mask := &b.bits[slot/64], uint64(1)<<(slot%64)
	for {
		old := w.Load()
		if (old&mask != 0) == failed {
			return
		}
		if w.CompareAndSwap(old, old^mask) {
			break
		}
	}
	if failed {
		b.fails.Add(1)
	} else {
		b.fails.Add(-1)
	}
}

// trip counts a trip and quarantines the program. Caller holds b.mu.
func (b *breaker) trip() {
	b.s.trips.Add(1)
	b.s.cTrips.Inc()
	b.open()
}

// open moves the breaker into quarantine with its current cooldown
// (jittered). Caller holds b.mu.
func (b *breaker) open() {
	s := b.s
	b.state.Store(int32(BreakerOpen))
	b.consecFails.Store(0)
	b.probeOK = 0
	wait := b.cooldown
	if s.cfg.JitterFrac > 0 {
		s.rngMu.Lock()
		j := 1 + s.cfg.JitterFrac*(2*s.rng.Float64()-1)
		s.rngMu.Unlock()
		wait = int64(float64(wait) * j)
	}
	if wait < 1 {
		wait = 1
	}
	b.wait = wait
}

// backoff grows a cooldown (in fires) exponentially, by at least one fire, up
// to limit — the breaker's and the engine-health ladder's shared arithmetic.
func backoff(cur int64, factor float64, limit int64) int64 {
	next := int64(float64(cur) * factor)
	if next <= cur {
		next = cur + 1
	}
	if next > limit {
		next = limit
	}
	return next
}

// State reports a program's breaker state (closed for unknown programs).
func (s *Supervisor) State(progID int64) BreakerState {
	if b := s.breakerOf(progID); b != nil {
		return BreakerState(b.state.Load())
	}
	return BreakerClosed
}

// LastError reports the most recent failure recorded for a program.
func (s *Supervisor) LastError(progID int64) error {
	b := s.breakerOf(progID)
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

// Quarantined lists programs currently open or half-open, by ascending id.
func (s *Supervisor) Quarantined() []int64 {
	var out []int64
	for id, b := range *s.progs.Load() {
		if b != nil && BreakerState(b.state.Load()) != BreakerClosed {
			out = append(out, int64(id))
		}
	}
	return out
}

// Counts reports aggregate trip / fallback / probe / recovery totals.
func (s *Supervisor) Counts() (trips, fallbacks, probes, recoveries int64) {
	return s.trips.Load(), s.fallbacks.Load(), s.probes.Load(), s.recoveries.Load()
}

// Trip force-quarantines a program (the control plane uses this when the
// accuracy monitor degrades hard enough that conservative reconfiguration is
// not sufficient). Programs no snapshot has bound have no breaker to trip.
func (s *Supervisor) Trip(progID int64) {
	b := s.breakerOf(progID)
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if BreakerState(b.state.Load()) != BreakerOpen {
		b.trip()
	}
}

// Reinstate force-closes a program's breaker (operator override).
func (s *Supervisor) Reinstate(progID int64) {
	b := s.breakerOf(progID)
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state.Store(int32(BreakerClosed))
	b.consecFails.Store(0)
	b.cooldown = s.cfg.CooldownFires
}

// Supervise attaches a fault-containment supervisor to the kernel; subsequent
// Fire calls route every program action through its breakers. Passing a
// second supervisor replaces the first (breaker state is not carried over).
// Each registered tenant gets its own supervisor instance derived from cfg
// (with the tenant's SLO quota overrides applied), so breaker state — trips,
// cooldowns, half-open probes — is tenant-isolated.
func (k *Kernel) Supervise(cfg SupervisorConfig) *Supervisor {
	s := newSupervisor(cfg, k.Metrics)
	k.mu.Lock()
	k.def.sup = s
	k.supCfg = &cfg
	for _, ts := range k.tenants {
		ts.sup = k.tenantSupervisorLocked(ts.quota)
	}
	k.rebuildRoutesLocked()
	k.mu.Unlock()
	return s
}

// Supervisor returns the attached supervisor, or nil.
func (k *Kernel) Supervisor() *Supervisor {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.def.sup
}

// Fallback is a baseline policy a hook degrades to while its learned program
// is quarantined: Linux readahead for mm/*, the CFS can_migrate_task
// heuristic for sched/*, shortest-queue for blk/* and net/* (§3.3: the
// control plane "recomputes ML decisions to be more conservative" — here the
// most conservative decision of all, the stock heuristic).
type Fallback interface {
	// Name identifies the baseline in diagnostics.
	Name() string
	// Decide produces the baseline verdict and emissions for one hook event.
	Decide(hook string, key, arg2, arg3 int64) (verdict int64, emissions []int64)
}

// FallbackFunc adapts a function to Fallback.
type FallbackFunc struct {
	Label string
	Fn    func(hook string, key, arg2, arg3 int64) (int64, []int64)
}

// Name implements Fallback.
func (f FallbackFunc) Name() string { return f.Label }

// Decide implements Fallback.
func (f FallbackFunc) Decide(hook string, key, arg2, arg3 int64) (int64, []int64) {
	return f.Fn(hook, key, arg2, arg3)
}

// RegisterFallback registers a baseline policy for a hook. pattern is either
// an exact hook name or a prefix ending in "*" (e.g. "mm/*"), matched against
// tenant-relative hook names. Registering the same pattern again replaces the
// previous baseline (fallbacks are idempotent wiring, not a registry of
// distinct resources). Each hook's baseline is resolved when its route is
// published, so registering republishes.
func (k *Kernel) RegisterFallback(pattern string, fb Fallback) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.fallbacks[pattern] = fb
	k.rebuildRoutesLocked()
}

// resolveFallback picks the baseline for a hook: exact match first, then the
// longest matching "*" prefix.
func resolveFallback(fallbacks map[string]Fallback, hook string) Fallback {
	best, bestLen := fallbacks[hook], -1
	if best != nil {
		return best
	}
	for pat, fb := range fallbacks {
		if prefix, ok := strings.CutSuffix(pat, "*"); ok && len(prefix) > bestLen && strings.HasPrefix(hook, prefix) {
			best, bestLen = fb, len(prefix)
		}
	}
	return best
}
