package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the engine sentinel: runtime defense-in-depth for the
// execution engines themselves. The supervisor (supervisor.go) contains
// misbehaving *programs*; the sentinel contains misbehaving *engines* — an
// AOT miscompile, a stale registry entry, a JIT panic. Three mechanisms
// compose:
//
//  1. Panic containment. Engine panics are already recovered into
//     ErrProgramPanic by the fire path; the sentinel charges them to a
//     per-program engine-health ladder instead of only to the breaker.
//  2. Online sampled differential checking. A deterministic 1-in-N sampler
//     re-executes a fired event on the fully-checked interpreter
//     (vm.NewCheckedInterpreter) and compares verdict, trap status, step
//     count, emissions and captured env side effects. Any divergence
//     quarantines the native tier that produced it and emits an incident.
//  3. A per-program demotion ladder AOT→JIT→interp→baseline with half-open
//     re-promotion probes after exponential backoff — the quarantine ladder
//     (ladder.go) the supervisor's breakers climb, its rungs the engine tiers.
//
// Health records are keyed by the program's content hash (aot.Hash), not its
// id: a remove/reinstall of byte-identical content resolves to the same
// record, so a reswap cannot resurrect a quarantined native function, while
// genuinely changed content rehashes and starts healthy. The hash→health
// resolution happens at snapshot publish time (route.go), so tier selection
// is re-evaluated on every snapshot rebuild; the hot path reads one atomic
// per fire.

// EngineTier orders the execution engines by trust-for-speed tradeoff. The
// health ladder demotes downward one tier at a time; TierBaseline routes the
// program's fires to the hook's registered baseline fallback.
type EngineTier int32

const (
	// TierBaseline runs no engine at all: the hook's baseline fallback (or
	// the default action) decides.
	TierBaseline EngineTier = iota
	// TierInterp is the bytecode interpreter.
	TierInterp
	// TierJIT is the closure-compiled engine.
	TierJIT
	// TierAOT is the ahead-of-time generated native function.
	TierAOT
)

// tierNames are the tiers' printed names, indexed by tier (also the wire form
// in WAL incident records, which store tiers by name so the log is
// self-describing).
var tierNames = [...]string{TierBaseline: "baseline", TierInterp: "interp", TierJIT: "jit", TierAOT: "aot"}

// String names the tier.
func (t EngineTier) String() string {
	if uint(t) < uint(len(tierNames)) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", int32(t))
}

// ParseEngineTier parses a tier name as printed by String.
func ParseEngineTier(s string) (EngineTier, error) {
	for t, name := range tierNames {
		if s == name {
			return EngineTier(t), nil
		}
	}
	return TierBaseline, fmt.Errorf("core: unknown engine tier %q", s)
}

// Demotion / incident causes.
const (
	// CausePanic: consecutive engine panics crossed DemoteAfter.
	CausePanic = "panic"
	// CauseDivergence: the sampled differential check caught the native tier
	// disagreeing with the checked interpreter.
	CauseDivergence = "divergence"
	// CauseProbeFailed: a half-open re-promotion probe faulted (history
	// entry only; the tier did not change).
	CauseProbeFailed = "probe-failed"
	// CausePromoted: enough probe successes re-promoted a tier (history
	// entry; not an incident).
	CausePromoted = "promoted"
	// CauseRestored: the quarantine was re-applied from a WAL incident
	// record or checkpoint during recovery/replication.
	CauseRestored = "restored"
)

// SentinelConfig parameterizes the engine sentinel's fault detectors. The
// ladder a demoted program climbs back up — cooldown, backoff, probe streak —
// is the kernel's Config.Quarantine.
type SentinelConfig struct {
	// SampleEvery is the differential-checking rate: 1-in-N engine
	// executions per program re-run on the checked interpreter. <=0
	// selects 64; 1 checks every fire.
	SampleEvery int
	// DemoteAfter demotes a tier after this many consecutive engine panics
	// (divergences demote immediately). <=0 selects 3.
	DemoteAfter int
	// History bounds the per-program transition-history ring. <=0 selects 16.
	History int
	// Seed drives the per-program sampling phase, so distinct programs do
	// not all check the same fire index while the schedule stays
	// reproducible for a fixed seed.
	Seed int64
}

func (c SentinelConfig) withDefaults() SentinelConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.DemoteAfter <= 0 {
		c.DemoteAfter = 3
	}
	if c.History <= 0 {
		c.History = 16
	}
	return c
}

// IncidentEvent is one transition in a program's engine-health history: a
// demotion, promotion, failed probe or restore. Demotions and diverging probes
// are also incidents — the in-memory form of a WAL incident record, which the
// control plane persists and replicates.
type IncidentEvent struct {
	Program string
	Hash    string
	From    EngineTier
	To      EngineTier
	Cause   string
	// Fire is the program's engine-execution index when the transition
	// happened (the sampler clock, not the hook's firing index).
	Fire   int64
	Detail string
}

// String renders the incident for logs and rmtkctl.
func (ev IncidentEvent) String() string {
	return fmt.Sprintf("%s [%s] %s→%s at fire %d (%s)",
		ev.Program, ev.Cause, ev.From, ev.To, ev.Fire, ev.Detail)
}

// engineHealth is the health record of one program content hash: a
// quarantine ladder whose rung is the program's current health ceiling, an
// EngineTier. The hot path reads the rung with one atomic load (healthy
// programs never touch the mutex); below the configured tier, fires wait out
// the cooldown at the demoted tier and then probe one tier up, half-open.
type engineHealth struct {
	hash    string
	name    string     // first program name bound (diagnostics)
	maxTier EngineTier // capability ceiling: AOT when a native func exists
	offset  uint64     // seeded sampling phase

	consec atomic.Int32 // consecutive engine panics at the current tier
	ladder

	// fires is the sampler clock's claim watermark: tickets are claimed from
	// it in leaseChunk blocks (see leaseSet), so it may run ahead of the
	// executions drawn so far by up to leaseChunk-1 per firing goroutine. It
	// sits on its own cache line: every goroutine's fast path loads the rung,
	// and a chunk claim must not invalidate that line.
	_     [64]byte
	fires atomic.Int64

	demoted int64           // under ladder.mu
	history []IncidentEvent // under ladder.mu, bounded by SentinelConfig.History
}

// tier reads the program's current health ceiling.
func (h *engineHealth) tier() EngineTier { return EngineTier(h.rung.Load()) }

// note appends a transition to the bounded history. Caller holds h.mu.
func (s *Sentinel) note(h *engineHealth, ev IncidentEvent) {
	h.history = append(h.history, ev)
	if len(h.history) > s.cfg.History {
		h.history = h.history[len(h.history)-s.cfg.History:]
	}
}

// moveTo puts the program on tier to, restarts the cooldown that must pass
// before the next re-promotion probe, and records the transition, which it
// returns. Caller holds h.mu (or has not published h yet).
func (s *Sentinel) moveTo(h *engineHealth, to EngineTier, cause string, fire int64, detail string) IncidentEvent {
	ev := IncidentEvent{Program: h.name, Hash: h.hash, From: h.tier(), To: to, Cause: cause, Fire: fire, Detail: detail}
	h.settle(int32(to))
	s.note(h, ev)
	return ev
}

// Sentinel owns the engine-health records of one kernel and the sampled
// differential checker's configuration and counters. Attach with
// Kernel.AttachSentinel; a kernel without one pays nothing on the fire path.
type Sentinel struct {
	cfg SentinelConfig
	q   QuarantineConfig
	k   *Kernel

	healths sync.Map // content hash (string) -> *engineHealth

	sinkMu sync.Mutex
	sink   func(IncidentEvent)

	incMu     sync.Mutex
	incidents []IncidentEvent // bounded ring for the live engine-status view

	ctrSampled     atomic.Int64
	ctrDiverged    atomic.Int64
	ctrPanics      atomic.Int64
	ctrDemotions   atomic.Int64
	ctrPromotions  atomic.Int64
	ctrBaseline    atomic.Int64
	ctrCheckSteps  atomic.Int64 // VM steps spent on checked reference runs
	ctrProbeFails  atomic.Int64
	ctrCheckedVerd atomic.Int64 // diverging fires whose caller got the checked verdict
}

// incidentRing bounds the live incident tail kept in memory.
const incidentRing = 128

// Config reports the (defaulted) sentinel configuration.
func (s *Sentinel) Config() SentinelConfig { return s.cfg }

// sampleOffset derives a program's deterministic sampling phase from the
// sentinel seed and the program content hash.
func sampleOffset(seed int64, hash string, every int) uint64 {
	f := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	f.Write(b[:])
	f.Write([]byte(hash))
	return f.Sum64() % uint64(every)
}

// healthOfLocked resolves a content hash's live health record: nil without a
// sentinel, or before a snapshot first bound the content. Caller holds k.mu.
func (k *Kernel) healthOfLocked(hash string) *engineHealth {
	if s := k.sentinel; s != nil {
		if v, ok := s.healths.Load(hash); ok {
			return v.(*engineHealth)
		}
	}
	return nil
}

// healthFor resolves (creating on first use) the health record of an
// installed program. Caller holds k.mu — snapshot publish and restore paths
// only; the fire path reaches health records through the route snapshot.
func (s *Sentinel) healthFor(p *progEntry) *engineHealth {
	if v, ok := s.healths.Load(p.hash); ok {
		return v.(*engineHealth)
	}
	maxTier := p.maxTier()
	h := &engineHealth{
		hash:    p.hash,
		name:    p.prog.Name,
		maxTier: maxTier,
		offset:  sampleOffset(s.cfg.Seed, p.hash, s.cfg.SampleEvery),
	}
	h.start(&s.q, int32(maxTier))
	if t, ok := s.k.quarStash[p.hash]; ok && t < maxTier {
		// A quarantine recorded durably before this install (recovery
		// replay, replication, or a reswap of previously-demoted content)
		// re-applies: the reswap cannot resurrect the native tier.
		s.moveTo(h, t, CauseRestored, 0, "")
	}
	actual, _ := s.healths.LoadOrStore(p.hash, h)
	return actual.(*engineHealth)
}

// leaseChunk is how many sampler-clock tickets one lease claim takes from a
// program's shared clock. The claim is the fire path's only cross-goroutine
// RMW, so chunking divides hot-path contention by leaseChunk; the chunk stays
// well below any useful SampleEvery so a continuously firing goroutine's
// consecutive chunks keep covering every sampling residue.
const leaseChunk = 16

// leaseSlots bounds how many programs' tickets one leaseSet caches.
const leaseSlots = 8

// engineLease holds sampler-clock tickets [next, end) claimed from h. hit is
// the next ticket the sampler selects (offset-aligned, advancing by the
// sampling interval as hits are consumed): precomputing it at chunk-claim time
// keeps the per-fire check to one compare instead of a modulo — a hardware
// divide, since SampleEvery is not a compile-time constant.
type engineLease struct {
	h         *engineHealth
	next, end uint64
	hit       uint64
}

// leaseSet is a single-goroutine-at-a-time cache of claimed sampler tickets.
// It is part of the dispatch scratch, recycled through Kernel.pool (a LIFO
// stack, see scratchPool). A goroutine firing in a loop keeps drawing the same
// scratch back out of the pool and consumes clock tickets strictly
// sequentially — the sampling schedule of a sequential fire stream is
// therefore identical to an unchunked per-fire clock. Tickets parked in a
// pooled set are consumed by whichever fire draws the set next; they are lost
// only when a full pool drops the set or slot eviction recycles an entry,
// which skips at most leaseChunk-1 clock indices at aperiodic moments — it
// cannot alias with the sampling modulus and starve the checker.
type leaseSet struct {
	evict  int
	leases [leaseSlots]engineLease
}

// claim refills l with a fresh leaseChunk-ticket block from h's shared clock
// and positions the precomputed next sampler hit inside (or past) it.
func (l *engineLease) claim(h *engineHealth, every uint64) {
	base := uint64(h.fires.Add(leaseChunk)) - leaseChunk
	l.next, l.end = base, base+leaseChunk
	l.hit = base + (every-(base+h.offset)%every)%every
}

// slot finds (or installs, evicting round-robin when full) the lease entry
// caching h's tickets.
func (ls *leaseSet) slot(h *engineHealth, every uint64) *engineLease {
	free := -1
	for i := range ls.leases {
		l := &ls.leases[i]
		if l.h == h {
			return l
		}
		if l.h == nil && free < 0 {
			free = i
		}
	}
	if free < 0 {
		free = ls.evict // recycle round-robin; the evicted residue is burned
		ls.evict = (ls.evict + 1) % leaseSlots
	}
	l := &ls.leases[free]
	l.h = h
	l.claim(h, every)
	return l
}

// sampleTicket draws this execution's sampler-clock ticket through the
// dispatch's lease set and reports the 0-based ticket plus whether the
// deterministic 1-in-SampleEvery sampler selects it for differential checking:
// for a fixed seed and a sequential fire stream the same executions are
// selected.
func (s *Sentinel) sampleTicket(h *engineHealth, ls *leaseSet) (int64, bool) {
	every := uint64(s.cfg.SampleEvery)
	// Single-program fire streams hit ls.leases[0] on the first probe; the
	// slot walk and chunk claim are the off-path cases.
	l := &ls.leases[0]
	if l.h != h {
		l = ls.slot(h, every)
	}
	if l.next >= l.end {
		l.claim(h, every)
	}
	n := l.next
	l.next++
	if n == l.hit {
		l.hit += every
		return int64(n), true
	}
	return int64(n), false
}

// FirstSampled reports the first engine-execution index (0-based, on the
// program's sampler clock) that the differential checker will select for the
// given content hash, and every SampleEvery executions after it. Chaos
// experiments use it to align injected miscompiles with the detection
// schedule; it also documents the ≤SampleEvery-fires detection bound.
func (s *Sentinel) FirstSampled(hash string) int64 {
	every := uint64(s.cfg.SampleEvery)
	off := sampleOffset(s.cfg.Seed, hash, s.cfg.SampleEvery)
	return int64((every - off) % every)
}

// engineFireOK records a clean unprobed native fire, resetting the
// consecutive-panic streak. Inlineable — it runs on every healthy fire.
func engineFireOK(h *engineHealth) {
	if h.consec.Load() != 0 {
		h.consec.Store(0)
	}
}

// probeSucceeded applies one successful half-open probe, promoting when the
// probe streak completes.
func (s *Sentinel) probeSucceeded(h *engineHealth, ranTier EngineTier) {
	h.mu.Lock()
	promoted := h.passed(int32(ranTier))
	if promoted {
		// The fresh cooldown lets the tier settle before the next one up is
		// probed.
		s.moveTo(h, ranTier, CausePromoted, h.fires.Load(), "")
	}
	h.mu.Unlock()
	if promoted {
		s.ctrPromotions.Add(1)
		s.k.Metrics.Counter("core.engine_promotions").Inc()
	}
}

// engineFault records an engine fault (panic or divergence) at the tier that
// ran. Divergences demote that tier immediately; panics demote after
// DemoteAfter consecutive strikes. A faulting probe backs off without
// changing tier (the program is already below the probed tier). fireIdx is
// the faulting execution's 1-based sampler-clock index when the fire drew a
// ticket, or negative for unclocked executions (probes, sub-JIT tiers) —
// those fall back to the clock watermark.
func (s *Sentinel) engineFault(h *engineHealth, ranTier EngineTier, probe bool, fireIdx int64, cause, detail string) {
	if cause == CausePanic {
		s.ctrPanics.Add(1)
	}
	if probe {
		s.probeFailed(h, ranTier, cause, detail)
		return
	}
	if cause == CausePanic {
		if int(h.consec.Add(1)) < s.cfg.DemoteAfter {
			return
		}
		h.consec.Store(0)
	}
	s.demoteBelow(h, ranTier, fireIdx, cause, detail)
}

// demoteBelow drops the program's tier to just below ranTier (no-op when a
// concurrent fault already demoted further) and emits the incident.
func (s *Sentinel) demoteBelow(h *engineHealth, ranTier EngineTier, fireIdx int64, cause, detail string) {
	var ev IncidentEvent
	h.mu.Lock()
	demote := h.tier() >= ranTier && ranTier > TierBaseline
	if demote {
		h.demoted++
		if fireIdx < 0 {
			fireIdx = h.fires.Load()
		}
		ev = s.moveTo(h, ranTier-1, cause, fireIdx, detail)
	}
	h.mu.Unlock()
	if demote {
		s.ctrDemotions.Add(1)
		s.k.Metrics.Counter("core.engine_demotions").Inc()
		s.emitIncident(ev)
	}
}

// probeFailed ends the half-open phase after a faulting probe: the cooldown
// backs off exponentially and the tier stays. A probe that finds the phase
// already ended by another moves nothing. A diverging probe still emits an
// incident — a detected miscompile is durable news even when the tier does
// not move.
func (s *Sentinel) probeFailed(h *engineHealth, probeTier EngineTier, cause, detail string) {
	h.mu.Lock()
	ev := IncidentEvent{Program: h.name, Hash: h.hash, From: probeTier, To: h.tier(), Cause: CauseProbeFailed, Fire: h.fires.Load(), Detail: detail}
	if h.failed(int32(probeTier)) {
		s.note(h, ev)
	}
	h.mu.Unlock()
	s.ctrProbeFails.Add(1)
	if cause == CauseDivergence {
		ev.Cause = cause
		s.emitIncident(ev)
	}
}

// emitIncident invalidates cached verdicts (the distrusted tier may have
// computed them), records the incident in the live tail, and hands it to the
// attached sink (the control plane's WAL append). Runs on the firing
// goroutine; incidents are demotion-rare, so the durability cost is paid
// exactly where the detection happened.
func (s *Sentinel) emitIncident(ev IncidentEvent) {
	s.k.flushVerdicts()
	s.incMu.Lock()
	s.incidents = append(s.incidents, ev)
	if len(s.incidents) > incidentRing {
		s.incidents = s.incidents[len(s.incidents)-incidentRing:]
	}
	s.incMu.Unlock()
	s.sinkMu.Lock()
	sink := s.sink
	s.sinkMu.Unlock()
	if sink != nil {
		sink(ev)
	}
	s.k.Metrics.Counter("core.engine_incidents").Inc()
}

// SetIncidentSink attaches the incident consumer (the control plane logs and
// replicates each incident as a WAL record). At most one sink; nil detaches.
func (s *Sentinel) SetIncidentSink(fn func(IncidentEvent)) {
	s.sinkMu.Lock()
	s.sink = fn
	s.sinkMu.Unlock()
}

// Incidents returns a copy of the live incident tail (most recent last).
func (s *Sentinel) Incidents() []IncidentEvent {
	s.incMu.Lock()
	defer s.incMu.Unlock()
	return append([]IncidentEvent(nil), s.incidents...)
}

// SentinelCounts aggregates the sentinel's counters.
type SentinelCounts struct {
	Sampled         int64 // engine executions differentially checked
	Divergences     int64 // checks that caught a disagreement
	Panics          int64 // engine panics charged to the ladder
	Demotions       int64
	Promotions      int64
	ProbeFailures   int64
	BaselineFires   int64 // fires routed to baseline by an exhausted ladder
	CheckSteps      int64 // VM steps spent on checked reference runs
	CheckedVerdicts int64 // diverging fires answered with the checked verdict
}

// Counts snapshots the sentinel counters.
func (s *Sentinel) Counts() SentinelCounts {
	return SentinelCounts{
		Sampled:         s.ctrSampled.Load(),
		Divergences:     s.ctrDiverged.Load(),
		Panics:          s.ctrPanics.Load(),
		Demotions:       s.ctrDemotions.Load(),
		Promotions:      s.ctrPromotions.Load(),
		ProbeFailures:   s.ctrProbeFails.Load(),
		BaselineFires:   s.ctrBaseline.Load(),
		CheckSteps:      s.ctrCheckSteps.Load(),
		CheckedVerdicts: s.ctrCheckedVerd.Load(),
	}
}

// statLines renders sentinel telemetry for the registry snapshot.
func (s *Sentinel) statLines() []string {
	c := s.Counts()
	return []string{
		fmt.Sprintf("core.engine_sentinel.sampled %d", c.Sampled),
		fmt.Sprintf("core.engine_sentinel.divergences %d", c.Divergences),
		fmt.Sprintf("core.engine_sentinel.panics %d", c.Panics),
		fmt.Sprintf("core.engine_sentinel.demotions %d", c.Demotions),
		fmt.Sprintf("core.engine_sentinel.promotions %d", c.Promotions),
		fmt.Sprintf("core.engine_sentinel.baseline_fires %d", c.BaselineFires),
		fmt.Sprintf("core.engine_sentinel.check_steps %d", c.CheckSteps),
	}
}

// AttachSentinel attaches an engine sentinel and republishes every route
// snapshot with health records resolved for the installed programs. Demoted
// programs climb back up the kernel's Config.Quarantine ladder.
// Quarantines restored (RestoreEngineQuarantine) before attachment are
// adopted. Re-attaching replaces the sentinel: the replaced one's quarantines
// stay (folded into the stash of restores), the rest of its
// health state — counters, histories, cooldowns — does not.
func (k *Kernel) AttachSentinel(cfg SentinelConfig) *Sentinel {
	k.mu.Lock()
	defer k.mu.Unlock()
	s := &Sentinel{cfg: cfg.withDefaults(), q: k.cfg.Quarantine, k: k}
	k.foldLiveLocked(k.quarStash)
	k.sentinel = s
	k.rebuildRoutesLocked()
	return s
}

// foldLiveLocked lays the attached sentinel's health records over a map of
// quarantines by content hash: a record below its capability ceiling sets its
// tier, and one at the ceiling deletes the entry — a restored quarantine the
// program has since probed its way out of is over. Caller holds k.mu; writing
// into k.quarStash takes it exclusively.
func (k *Kernel) foldLiveLocked(into map[string]EngineTier) {
	if s := k.sentinel; s != nil {
		s.healths.Range(func(_, v any) bool {
			h := v.(*engineHealth)
			if t := h.tier(); t < h.maxTier {
				into[h.hash] = t
			} else {
				delete(into, h.hash)
			}
			return true
		})
	}
}

// EngineSentinel returns the attached sentinel, or nil.
func (k *Kernel) EngineSentinel() *Sentinel {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.sentinel
}

// RestoreEngineQuarantine re-applies a durable engine quarantine by content
// hash — WAL incident replay, checkpoint restore, and follower replication
// all land here. Order-independent with respect to program installs and
// sentinel attachment: a quarantine for content not yet resolved is stashed
// and applied when its health record is first created.
func (k *Kernel) RestoreEngineQuarantine(hash string, tier EngineTier) {
	if hash == "" {
		return
	}
	if tier < TierBaseline {
		tier = TierBaseline
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if h, s := k.healthOfLocked(hash), k.sentinel; h != nil {
		h.mu.Lock()
		if h.tier() > tier {
			s.moveTo(h, tier, CauseRestored, h.fires.Load(), "")
		}
		h.mu.Unlock()
	} else if t, ok := k.quarStash[hash]; !ok || tier < t {
		k.quarStash[hash] = tier
	}
	k.flushVerdicts()
}

// EngineQuarantine is one durable demotion, as checkpointed.
type EngineQuarantine struct {
	Hash string
	Tier EngineTier
}

// EngineQuarantines lists every content hash currently held below its
// capability ceiling, sorted by hash for deterministic checkpoints: the live
// health records, and the stashed restores of content that has none. A live
// record overrides its stash entry — a restored quarantine the program has
// since probed its way out of is over.
func (k *Kernel) EngineQuarantines() []EngineQuarantine {
	k.mu.RLock()
	defer k.mu.RUnlock()
	seen := maps.Clone(k.quarStash)
	k.foldLiveLocked(seen)
	out := make([]EngineQuarantine, 0, len(seen))
	for hash, t := range seen {
		out = append(out, EngineQuarantine{Hash: hash, Tier: t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// EngineProgramStatus is the live engine-health view of one installed
// program (rmtkctl engine-status).
type EngineProgramStatus struct {
	Program string
	Hash    string
	ID      int64
	MaxTier EngineTier // capability ceiling (aot when a native func exists)
	Tier    EngineTier // current health ceiling
	// Fires is the sampler clock's claim watermark: tickets are claimed
	// leaseChunk at a time, so it runs ahead of the engine executions drawn
	// so far by up to leaseChunk-1 per firing goroutine.
	Fires     int64
	Demotions int64
	Checkable bool // eligible for sampled differential checking
	History   []IncidentEvent
}

// EngineStatus reports per-program engine health, sorted by program name.
// Without a sentinel the report still shows capability tiers and any stashed
// restored quarantines.
func (k *Kernel) EngineStatus() []EngineProgramStatus {
	k.mu.RLock()
	defer k.mu.RUnlock()
	out := make([]EngineProgramStatus, 0, len(k.progs))
	for name, id := range k.progIDs {
		p := k.progs[id]
		st := EngineProgramStatus{Program: name, Hash: p.hash, ID: id, Checkable: p.checkable}
		st.MaxTier = p.maxTier()
		st.Tier = st.MaxTier
		if h := k.healthOfLocked(p.hash); h != nil {
			st.Fires = h.fires.Load()
			st.Tier = min(st.Tier, h.tier())
			h.mu.Lock()
			st.Demotions = h.demoted
			st.History = append([]IncidentEvent(nil), h.history...)
			h.mu.Unlock()
		} else if t, ok := k.quarStash[p.hash]; ok && t < st.Tier {
			st.Tier = t
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Program < out[j].Program })
	return out
}
