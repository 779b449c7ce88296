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

// SupervisorConfig parameterizes the breakers' fault detectors. The
// quarantine ladder a tripped breaker climbs back up — cooldown, backoff,
// probe streak — is the kernel's Config.Quarantine.
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
	// JitterFrac randomizes each cooldown by ±this fraction (seeded,
	// deterministic). <0 selects 0.1.
	JitterFrac float64
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
	if c.JitterFrac < 0 {
		c.JitterFrac = 0.1
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

// breaker is the per-program containment state: a two-rung quarantine ladder
// (rungOpen, rungClosed; half-open is the ladder probing from rungOpen) plus
// the trip detectors. The closed-breaker success path — the overwhelmingly
// common case on a healthy datapath — is lock-free: the rung, consecFails and
// the K-of-M window are atomics, and a success that finds nothing to forget
// writes nothing. The ladder's mutex serializes everything else (failures,
// open/half-open routing, the operator API), so trip/probe/cooldown decisions
// are the single-lock machine's on every one-goroutine schedule. A nil
// *breaker is an unsupervised program: allow always says run.
type breaker struct {
	s           *Supervisor
	consecFails atomic.Int32 // beside the rung: the success path loads both
	ladder

	// The K-of-M window is a ring of outcome bits (1 = failed): seq counts the
	// outcomes pushed (slot = seq mod M, and seq >= M means the ring has
	// filled), fails is the ring's popcount so nobody scans it. A full
	// all-zero ring is the same ring after one more success, which is why the
	// success path may skip the push.
	seq   atomic.Uint64
	fails atomic.Int32
	bits  []atomic.Uint64
}

// A breaker's rungs.
const (
	rungOpen   int32 = 0
	rungClosed int32 = 1
)

// Supervisor owns the breakers of every supervised program on one kernel (or
// one tenant). A breaker is created when a route snapshot first binds its
// program and is never replaced: breaker identity is per (supervisor, program
// id) and survives republish. Fires reach breakers through the snapshot's
// bindings; the id-keyed methods below go through a copy-on-write table.
type Supervisor struct {
	cfg     SupervisorConfig
	q       QuarantineConfig
	metrics *telemetry.Registry

	mu    sync.Mutex                 // serializes bind
	progs atomic.Pointer[[]*breaker] // indexed by program id; nil = never bound

	rngMu sync.Mutex // jitter source; cold path (breaker opens) only
	rng   *rand.Rand

	trips, fallbacks, probes, recoveries               atomic.Int64
	cTrips, cFallbacks, cProbes, cRecoveries, cReopens *telemetry.Counter
}

// newSupervisor builds a supervisor whose breakers climb q, bound to a metrics
// registry.
func newSupervisor(cfg SupervisorConfig, q QuarantineConfig, metrics *telemetry.Registry) *Supervisor {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:         cfg,
		q:           q.withDefaults(),
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
	b := &breaker{s: s, bits: make([]atomic.Uint64, (s.cfg.WindowM+63)/64)}
	b.start(&s.q, rungClosed)
	tab[progID] = b
	s.progs.Store(&tab)
	return b
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
	switch rung, probe := b.decide(rungClosed); {
	case probe:
		return DecisionProbe
	case rung == rungClosed: // closed while we blocked on the lock
		return DecisionRun
	}
	b.s.fallbacks.Add(1)
	b.s.cFallbacks.Inc()
	return DecisionFallback
}

// closed reports a closed (or absent) breaker: one load, and no tick of the
// cooldown clock — which is what lets a cache replay ask before it commits.
func (b *breaker) closed() bool {
	return b == nil || b.rung.Load() == rungClosed
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
	if failure == nil && b.rung.Load() == rungClosed {
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
	probe := b.halfOpen
	if probe {
		s.probes.Add(1)
		s.cProbes.Inc()
	}
	if failure == nil {
		b.consecFails.Store(0)
		if b.passed(rungClosed) {
			b.settle(rungClosed)
			s.recoveries.Add(1)
			s.cRecoveries.Inc()
		}
		return nil, false
	}

	s.metrics.Counter("supervisor.errors." + hook).Inc()
	s.metrics.Histogram("supervisor.fail_steps." + hook).Observe(steps)

	if probe {
		// Failed probe: back off exponentially and re-open, jittering the
		// restarted wait.
		b.failed(rungClosed)
		b.wait = s.jitter(b.wait)
		s.cReopens.Inc()
		return failure, false
	}

	consec := int(b.consecFails.Add(1))
	windowed := len(b.bits) > 0 && b.seq.Load() >= uint64(s.cfg.WindowM) && int(b.fails.Load()) >= s.cfg.WindowK
	if b.rung.Load() == rungClosed && (consec >= s.cfg.TripConsecutive || windowed) {
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
	b.consecFails.Store(0)
	b.moveTo(rungOpen, b.s.jitter(b.cooldown))
}

// jitter randomizes a wait by ±JitterFrac, keeping it at least one fire.
func (s *Supervisor) jitter(wait int64) int64 {
	if s.cfg.JitterFrac > 0 {
		s.rngMu.Lock()
		j := 1 + s.cfg.JitterFrac*(2*s.rng.Float64()-1)
		s.rngMu.Unlock()
		wait = int64(float64(wait) * j)
	}
	return max(wait, 1)
}

// state reads the breaker's state off its ladder. Caller holds b.mu.
func (b *breaker) state() BreakerState {
	switch {
	case b.rung.Load() == rungClosed:
		return BreakerClosed
	case b.halfOpen:
		return BreakerHalfOpen
	}
	return BreakerOpen
}

// State reports a program's breaker state (closed for unknown programs).
func (s *Supervisor) State(progID int64) BreakerState {
	b := s.breakerOf(progID)
	if b.closed() {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state()
}

// Quarantined lists programs currently open or half-open, by ascending id.
func (s *Supervisor) Quarantined() []int64 {
	var out []int64
	for id, b := range *s.progs.Load() {
		if !b.closed() {
			out = append(out, int64(id))
		}
	}
	return out
}

// Counts reports aggregate trip / fallback / probe / recovery totals.
func (s *Supervisor) Counts() (trips, fallbacks, probes, recoveries int64) {
	return s.trips.Load(), s.fallbacks.Load(), s.probes.Load(), s.recoveries.Load()
}

// Supervise attaches a fault-containment supervisor to the kernel; subsequent
// Fire calls route every program action through its breakers, which climb
// the kernel's Config.Quarantine ladder. Passing a second supervisor replaces
// the first (breaker state is not carried over). Each registered tenant gets
// its own supervisor instance derived from cfg (with the tenant's SLO quota
// overrides applied), so breaker state — trips, cooldowns, half-open probes —
// is tenant-isolated.
func (k *Kernel) Supervise(cfg SupervisorConfig) *Supervisor {
	s := newSupervisor(cfg, k.cfg.Quarantine, k.Metrics)
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
