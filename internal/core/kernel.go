// Package core implements the in-kernel RMT virtual machine of Figure 1: the
// registries for tables, programs, models, weight matrices and helpers; the
// hook points where datapaths attach; program admission (verify → compile →
// attach); and event dispatch through the match/action pipeline.
//
// Everything a program can reach at runtime goes through the vm.Env
// implementation in env.go, so the verifier's resource whitelists are the
// single source of truth for what admitted code can touch.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rmtk/internal/aot"
	"rmtk/internal/dp"
	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/qos"
	"rmtk/internal/table"
	"rmtk/internal/telemetry"
	"rmtk/internal/verifier"
	"rmtk/internal/vm"
)

// ExecMode selects the execution engine for admitted programs: it is the
// engine tier the configuration prefers, under its historical name.
// TierBaseline is not a mode — a zero Config.Mode selects the JIT, and
// ParseExecMode and SetMode refuse it.
type ExecMode = EngineTier

const (
	// ModeJIT compiles admitted programs to closures (the default).
	ModeJIT = TierJIT
	// ModeInterp runs admitted programs in the bytecode interpreter.
	ModeInterp = TierInterp
	// ModeAOT prefers ahead-of-time generated native functions (cmd/rmtkgen)
	// for programs whose content hash is in the internal/aot registry, and
	// falls back to the JIT per program on a registry miss.
	ModeAOT = TierAOT
)

// ParseExecMode parses a mode name as printed by String (rmtkctl/rmtbench
// flag values).
func ParseExecMode(s string) (ExecMode, error) {
	if m, err := ParseEngineTier(s); err == nil && m != TierBaseline {
		return m, nil
	}
	return ModeJIT, fmt.Errorf("core: unknown exec mode %q (want jit, interp or aot)", s)
}

// Model is a registered inference model callable from RMT programs via
// OpMLInfer and from ActionInfer table entries.
type Model interface {
	// Predict returns the model's scalar output for the feature vector.
	Predict(x []int64) int64
	// NumFeatures is the input width the model expects (used by
	// ActionInfer to size history windows).
	NumFeatures() int
	// Cost reports the verifier admission cost (ops per inference, bytes
	// resident).
	Cost() (ops, bytes int64)
}

// Matrix is a registered integer weight matrix for OpMatMul: out = W·in + B.
type Matrix struct {
	In, Out int
	W       []int64 // Out×In row-major
	B       []int64 // Out
}

// Bytes reports the matrix's resident size for the verifier.
func (m *Matrix) Bytes() int64 { return 8 * int64(len(m.W)+len(m.B)) }

// HelperFn is the implementation of a whitelisted helper. args are the
// caller's R1..R5; emissions appended to emit are returned from Fire.
type HelperFn func(k *Kernel, inv *Invocation, args *[5]int64) (int64, error)

// helper pairs a spec with its implementation.
type helper struct {
	spec verifier.HelperSpec
	fn   HelperFn
}

// Config parameterizes kernel construction.
type Config struct {
	// CtxFields is the per-key scalar field count of the execution
	// context. <=0 selects 8.
	CtxFields int
	// CtxHistory is the per-key history capacity. <=0 selects 128.
	CtxHistory int
	// Mode selects the execution engine (zero selects ModeJIT).
	Mode ExecMode
	// OpsBudget / MemBudget / StepBudget are the verifier budgets applied
	// at admission (0 = verifier defaults / unlimited).
	OpsBudget  int64
	MemBudget  int64
	StepBudget int64
	// RateLimit caps emissions per invocation for programs the verifier
	// flags as resource-allocating. <=0 selects 32.
	RateLimit int
	// Privacy, when non-nil, gates aggregate context queries through a
	// differential-privacy budget.
	Privacy *dp.Accountant
	// QueryEpsilon is the epsilon charged per noised aggregate query.
	// <=0 selects 0.1.
	QueryEpsilon float64
	// DisableVerdictCache turns off fire-verdict memoization (pure-program
	// decision caching). Benchmarks use it for the uncached arm; production
	// kernels leave it on.
	DisableVerdictCache bool
	// Quarantine is the cooldown, backoff and probe policy every supervisor
	// breaker and engine-health record of the kernel climbs back up
	// (ladder.go).
	Quarantine QuarantineConfig
}

func (c Config) withDefaults() Config {
	if c.Mode == TierBaseline {
		c.Mode = ModeJIT
	}
	if c.CtxFields <= 0 {
		c.CtxFields = 8
	}
	if c.CtxHistory <= 0 {
		c.CtxHistory = 128
	}
	if c.RateLimit <= 0 {
		c.RateLimit = 32
	}
	if c.QueryEpsilon <= 0 {
		c.QueryEpsilon = 0.1
	}
	c.Quarantine = c.Quarantine.withDefaults()
	return c
}

// progEntry is an admitted program with its engines and admission report.
type progEntry struct {
	id     int64
	prog   *isa.Program
	interp *vm.Interpreter
	jit    *vm.JIT
	report *verifier.Report
	// aot is the ahead-of-time compiled native function, or nil when the
	// program's content hash missed the generated registry. The *function*
	// binding is install-time (a reswap admits a fresh program and
	// rehashes, so a stale function can never survive a program change);
	// the *tier* that runs is re-resolved from the engine-health ladder at
	// every snapshot publish (progBinding.health), so a reswap cannot
	// resurrect a quarantined native func either (sentinel.go).
	aot aot.Func
	// hash is the content hash (aot.Hash) — the engine-health key.
	hash string
	// checked is the fully-checked interpreter variant (no proof elision)
	// the sentinel's sampled differential checker runs references on.
	checked *vm.Interpreter
	// checkable marks programs whose execution is deterministic enough to
	// re-run for comparison: no differentially-private helpers anywhere in
	// the tail-call closure (re-running those would double-charge the
	// privacy budget and diverge on fresh noise).
	checkable bool
	// modelSwaps counts the SwapModels of models prog.Models declares (under
	// k.mu); each publish copies it into progBinding.dep.
	modelSwaps uint64
}

// maxTier is the program's capability ceiling: AOT when a native function
// exists, the JIT otherwise.
func (p *progEntry) maxTier() EngineTier {
	if p.aot != nil {
		return TierAOT
	}
	return TierJIT
}

// Kernel is the in-kernel RMT virtual machine instance.
type Kernel struct {
	cfg Config

	mu       sync.RWMutex
	ctx      *table.CtxStore
	tables   map[int64]*table.Table
	tableIDs map[string]int64
	hooks    map[string][]int64 // hook -> ordered table ids
	hookIDs  map[string]uint64  // hook -> interned id (verdict-cache keys)
	progs    map[int64]*progEntry
	progIDs  map[string]int64
	models   map[int64]Model
	// mats, vecs and helpers are copy-on-write (withEntry): route snapshots
	// share them, so a registration replaces the map instead of writing it.
	mats    map[int64]*Matrix
	vecs    map[int64]*vecSlot
	helpers map[int64]*helper

	// Fault containment: the per-hook baseline fallbacks and the
	// (test/chaos-only) fault injector; each tenantState, the default one
	// included, carries its own supervisor.
	fallbacks map[string]Fallback
	inj       *fault.Injector

	// Engine sentinel: per-program engine-health ladder plus the sampled
	// differential checker (sentinel.go). quarStash holds durable engine
	// quarantines restored from WAL/checkpoint before their program's health
	// record exists — no sentinel yet, or recovery ordering: an incident record
	// can replay before the install it refers to — and is consulted when a
	// health record is first created.
	sentinel  *Sentinel
	quarStash map[string]EngineTier

	// shadows are attached canary candidates, at most one per hook.
	shadows map[string]*Shadow

	nextTable int64
	nextProg  int64
	nextModel int64
	nextMat   int64
	nextVec   int64
	nextHook  uint64
	nextEpoch uint64 // hookRoute.epoch allocator

	// Tenancy: the default tenant (the admin view, carrying every resource
	// under its full name), the registered tenants (each with its own COW
	// route snapshot, generation, flush counter and verdict cache), the
	// lock-free directory
	// FireTenant resolves through, per-model ownership (models are id-keyed,
	// so ownership cannot be derived from a name prefix), the supervisor
	// config per-tenant supervisors derive from, and the attached admission
	// controller.
	def        *tenantState
	tenants    map[string]*tenantState
	tdir       atomic.Pointer[map[string]*tenantState]
	modelOwner map[int64]string
	supCfg     *SupervisorConfig
	adm        atomic.Pointer[admission]

	ctrFires    *telemetry.ShardedCounter
	ctrCollects *telemetry.ShardedCounter
	ctrInfers   *telemetry.ShardedCounter
	histSteps   *telemetry.ShardedHistogram
	// ctrTierFires counts engine executions per tier (indexed by
	// EngineTier; TierBaseline slot counts ladder-exhausted fallback
	// routes), striped like the other hot-path counters.
	ctrTierFires [TierAOT + 1]*telemetry.ShardedCounter

	Metrics *telemetry.Registry
	// Failure-path counters, resolved once (Registry.Bind) so counting a trap,
	// an SLO violation or a dropped emission never takes the registry lock.
	cTraps, cSLOViolations, cRateLimited, cFallbackDecisions, cCorrupted,
	cProgMissing, cInferMissing, cHelperPanics *telemetry.Counter

	// pool recycles the one scratch a dispatch draws when an event leaves the
	// cached-hit path (fire.go) — the kernel's only pool.
	pool scratchPool
}

// Sentinel errors. Callers (including the supervisor and the control plane's
// retry loop) branch with errors.Is rather than string matching.
var (
	ErrNotFound        = errors.New("core: not found")
	ErrDuplicate       = errors.New("core: duplicate name")
	ErrNoDatapath      = errors.New("core: no datapath attached to hook")
	ErrMalformedMatrix = errors.New("core: malformed matrix")
	ErrHelperPanic     = errors.New("core: helper panicked")
	ErrProgramPanic    = errors.New("core: program execution panicked")
	// ErrEngineQuarantined is reported when the engine-health ladder has
	// demoted a program to the baseline tier: no engine runs it until a
	// re-promotion probe succeeds (fires route to the hook's fallback).
	ErrEngineQuarantined = errors.New("core: engine tiers exhausted; baseline fallback active")
)

// NewKernel constructs a kernel and registers the standard helpers.
func NewKernel(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	k := &Kernel{
		cfg:         cfg,
		ctx:         table.NewCtxStore(cfg.CtxFields, cfg.CtxHistory),
		tables:      make(map[int64]*table.Table),
		tableIDs:    make(map[string]int64),
		hooks:       make(map[string][]int64),
		hookIDs:     make(map[string]uint64),
		progs:       make(map[int64]*progEntry),
		progIDs:     make(map[string]int64),
		models:      make(map[int64]Model),
		mats:        make(map[int64]*Matrix),
		vecs:        make(map[int64]*vecSlot),
		helpers:     make(map[int64]*helper),
		fallbacks:   make(map[string]Fallback),
		shadows:     make(map[string]*Shadow),
		quarStash:   make(map[string]EngineTier),
		tenants:     make(map[string]*tenantState),
		modelOwner:  make(map[int64]string),
		Metrics:     telemetry.NewRegistry(),
		ctrFires:    telemetry.NewShardedCounter(coreShards),
		ctrCollects: telemetry.NewShardedCounter(coreShards),
		ctrInfers:   telemetry.NewShardedCounter(coreShards),
		histSteps:   telemetry.NewShardedHistogram(coreShards),
	}
	for i := range k.ctrTierFires {
		k.ctrTierFires[i] = telemetry.NewShardedCounter(coreShards)
	}
	k.cTraps = k.Metrics.Bind("core.traps")
	k.cSLOViolations = k.Metrics.Bind("core.slo_violations")
	k.cRateLimited = k.Metrics.Bind("core.rate_limited")
	k.cFallbackDecisions = k.Metrics.Bind("core.fallback_decisions")
	k.cCorrupted = k.Metrics.Bind("core.corrupted_verdicts")
	k.cProgMissing = k.Metrics.Bind("core.program_missing")
	k.cInferMissing = k.Metrics.Bind("core.infer_missing_model")
	k.cHelperPanics = k.Metrics.Bind("core.helper_panics")
	k.def = &tenantState{}
	if !cfg.DisableVerdictCache {
		k.def.vcache = table.NewFlowCache[*cachedFire](coreShards, 4096)
	}
	k.storeDirLocked()
	k.pool.setNew(func() *scratch { return new(scratch) })
	registerStandardHelpers(k)
	k.mu.Lock()
	k.rebuildRoutesLocked()
	k.mu.Unlock()
	k.Metrics.AddSource(k.hotStatLines)
	return k
}

// Ctx exposes the execution-context store (the control plane and tests use
// it; datapath programs go through the VM).
func (k *Kernel) Ctx() *table.CtxStore { return k.ctx }

// Mode reports the execution mode.
func (k *Kernel) Mode() ExecMode { return k.cfg.Mode }

// SetMode switches the execution engine for subsequent Fire calls (admitted
// programs keep every engine ready). TierBaseline is not a mode: asking for it
// changes nothing.
func (k *Kernel) SetMode(m ExecMode) {
	if m == TierBaseline {
		return
	}
	k.mu.Lock()
	k.cfg.Mode = m
	k.rebuildRoutesLocked()
	k.mu.Unlock()
}

// CreateTable registers a table and attaches it to its hook's pipeline. A
// tenant-namespaced table ("tenant:name") is charged against the owning
// tenant's table quota; the owner must be a registered tenant.
func (k *Kernel) CreateTable(t *table.Table) (int64, error) { return k.createTable(t, 0) }

// allocID advances an id allocator: to the next id, or — on the restore path,
// forceID > 0 — to forceID, which must lie beyond every id handed out so far
// (restored ids arrive in ascending order; ids are never recycled).
func allocID(next *int64, forceID int64, what string) (int64, error) {
	if forceID == 0 {
		*next++
	} else if forceID <= *next {
		return 0, fmt.Errorf("%w: %s id %d already allocated", ErrDuplicate, what, forceID)
	} else {
		*next = forceID
	}
	return *next, nil
}

// createTable is CreateTable (forceID 0) and CreateTableAt. The restore path
// replays already-admitted state: no quota cap (chargeTableLocked), and it
// starts the owner's hooks afresh where a live create only extends them.
func (k *Kernel) createTable(t *table.Table, forceID int64) (int64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.tableIDs[t.Name]; dup {
		return 0, fmt.Errorf("%w: table %q", ErrDuplicate, t.Name)
	}
	owner := tenantOf(t.Name)
	ts, err := k.chargeTableLocked(owner, t.Hook, forceID == 0)
	if err != nil {
		return 0, err
	}
	id, err := allocID(&k.nextTable, forceID, "table")
	if err != nil {
		return 0, err
	}
	k.tables[id] = t
	k.tableIDs[t.Name] = id
	if t.Hook != "" {
		if _, ok := k.hookIDs[t.Hook]; !ok {
			k.nextHook++
			k.hookIDs[t.Hook] = k.nextHook
		}
		k.hooks[t.Hook] = append(k.hooks[t.Hook], id)
	}
	ts.nTables++
	// Entry-level mutations of an attached table advance the generation of the
	// tenants that can see it without republishing the route snapshot (cached
	// verdicts that consulted the table notice by its version).
	t.SetOnMutate(func() { k.bumpGenFor(owner) })
	k.publishOwnedLocked(owner, forceID == 0)
	return id, nil
}

// chargeTableLocked validates the owner of a new table against tenancy and
// quota, and returns the owner's state (k.def for the default tenant). A
// table's hook must live in the table's own namespace: an attached table
// executes inside the hook owner's datapath, so a cross-tenant hook would let
// one tenant run code in another's pipeline. enforceQuota is false on the
// checkpoint-restore path, which replays already-admitted state and must
// succeed even after a quota was lowered below the tenant's live resource
// count. Caller holds k.mu.
func (k *Kernel) chargeTableLocked(owner, hook string, enforceQuota bool) (*tenantState, error) {
	if hook != "" && tenantOf(hook) != owner {
		return nil, fmt.Errorf("%w: table of tenant %q on hook %q", qos.ErrCrossTenant, owner, hook)
	}
	if owner == "" {
		return k.def, nil
	}
	ts, ok := k.tenants[owner]
	if !ok {
		return nil, fmt.Errorf("%w: %q", qos.ErrTenantUnknown, owner)
	}
	if enforceQuota && ts.quota.MaxTables > 0 && ts.nTables >= ts.quota.MaxTables {
		return nil, fmt.Errorf("%w: tenant %q at %d tables", qos.ErrQuotaExceeded, owner, ts.nTables)
	}
	return ts, nil
}

// RemoveTable detaches a table from its hook pipeline and unregisters it.
// In-flight Fire calls that already resolved the id fail soft (Table returns
// ErrNotFound and the pipeline skips it). Transactions use this to undo
// CreateTable steps on rollback.
func (k *Kernel) RemoveTable(id int64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	t, ok := k.tables[id]
	if !ok {
		return fmt.Errorf("%w: table %d", ErrNotFound, id)
	}
	k.removeTableLocked(id, t)
	k.rebuildOwnedLocked(tenantOf(t.Name))
	return nil
}

// removeTableLocked unregisters a table without republishing routes (callers
// rebuild once after a batch). Caller holds k.mu.
func (k *Kernel) removeTableLocked(id int64, t *table.Table) {
	delete(k.tables, id)
	delete(k.tableIDs, t.Name)
	if t.Hook != "" {
		ids := k.hooks[t.Hook]
		for i, tid := range ids {
			if tid == id {
				k.hooks[t.Hook] = append(ids[:i:i], ids[i+1:]...)
				break
			}
		}
		if len(k.hooks[t.Hook]) == 0 {
			delete(k.hooks, t.Hook)
		}
	}
	if ts, ok := k.tenants[tenantOf(t.Name)]; ok {
		ts.nTables--
	} else if tenantOf(t.Name) == "" {
		k.def.nTables--
	}
	t.SetOnMutate(nil)
}

// Table resolves a table by id.
func (k *Kernel) Table(id int64) (*table.Table, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	t, ok := k.tables[id]
	if !ok {
		return nil, fmt.Errorf("%w: table %d", ErrNotFound, id)
	}
	return t, nil
}

// TableByName resolves a table by name.
func (k *Kernel) TableByName(name string) (*table.Table, int64, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	id, ok := k.tableIDs[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: table %q", ErrNotFound, name)
	}
	return k.tables[id], id, nil
}

// RegisterModel adds an inference model owned by the default tenant and
// returns its id.
func (k *Kernel) RegisterModel(m Model) int64 {
	id, _ := k.RegisterModelOwned("", m)
	return id
}

// RegisterModelOwned adds an inference model owned by a tenant ("" for the
// default tenant). Tenant-owned models are visible only to their owner's
// programs and route snapshots.
func (k *Kernel) RegisterModelOwned(owner string, m Model) (int64, error) {
	return k.registerModel(owner, m, 0)
}

// registerModel is RegisterModelOwned (forceID 0) and RegisterModelOwnedAt;
// only a live registration demands that the owner is a registered tenant.
func (k *Kernel) registerModel(owner string, m Model, forceID int64) (int64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.tenants[owner]; !ok && owner != "" && forceID == 0 {
		return 0, fmt.Errorf("%w: %q", qos.ErrTenantUnknown, owner)
	}
	id, err := allocID(&k.nextModel, forceID, "model")
	if err != nil {
		return 0, err
	}
	k.models[id] = m
	if owner != "" {
		k.modelOwner[id] = owner
	}
	k.publishOwnedLocked(owner, forceID == 0)
	return id, nil
}

// SwapModel replaces model id in place (online training pushes refreshed
// models through this). An attached fault injector may fail the swap
// transiently (fault.ErrInjectedSwap); the control plane's retry loop is
// expected to absorb those.
func (k *Kernel) SwapModel(id int64, m Model) error {
	if out := k.FaultInjector().Check(fault.TargetModelSwap); out != nil && out.SwapErr != nil {
		k.Metrics.Counter("core.model_swap_faults").Inc()
		return fmt.Errorf("core: model %d: %w", id, out.SwapErr)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.models[id]; !ok {
		return fmt.Errorf("%w: model %d", ErrNotFound, id)
	}
	k.models[id] = m
	// The verdicts that could have read the old model are those of the
	// programs declaring it; their dep moves, everyone else's cache stands.
	for _, p := range k.progs {
		if slices.Contains(p.prog.Models, id) {
			p.modelSwaps++
		}
	}
	k.extendOwnedLocked(k.modelOwner[id])
	return nil
}

// SetFaultInjector attaches (or with nil detaches) a fault injector. Only
// tests and the chaos experiment use this; production kernels run without
// one at zero cost.
func (k *Kernel) SetFaultInjector(inj *fault.Injector) {
	k.mu.Lock()
	k.inj = inj
	k.rebuildRoutesLocked()
	k.mu.Unlock()
}

// FaultInjector returns the attached injector, or nil.
func (k *Kernel) FaultInjector() *fault.Injector {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.inj
}

// Model resolves a model by id.
func (k *Kernel) Model(id int64) (Model, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	m, ok := k.models[id]
	if !ok {
		return nil, fmt.Errorf("%w: model %d", ErrNotFound, id)
	}
	return m, nil
}

// RegisterMatrix adds a weight matrix and returns its id.
func (k *Kernel) RegisterMatrix(m *Matrix) (int64, error) { return k.registerMatrix(m, 0) }

// registerMatrix is RegisterMatrix (forceID 0) and RegisterMatrixAt.
func (k *Kernel) registerMatrix(m *Matrix, forceID int64) (int64, error) {
	if m.In <= 0 || m.Out <= 0 || len(m.W) != m.In*m.Out || len(m.B) != m.Out {
		return 0, fmt.Errorf("%w: %dx%d (w=%d b=%d)", ErrMalformedMatrix, m.Out, m.In, len(m.W), len(m.B))
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	id, err := allocID(&k.nextMat, forceID, "matrix")
	if err != nil {
		return 0, err
	}
	k.mats = withEntry(k.mats, id, m)
	k.publishOwnedLocked("", forceID == 0)
	return id, nil
}

// RegisterVec adds a pool vector (e.g. a staging buffer for feature vectors)
// and returns its id.
func (k *Kernel) RegisterVec(v []int64) int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextVec++
	k.vecs = withEntry(k.vecs, k.nextVec, &vecSlot{v: append([]int64(nil), v...)})
	k.extendOwnedLocked("")
	return k.nextVec
}

// SetVec overwrites pool vector id (the mechanism subsystems use to stage
// per-event feature vectors). It takes only the vector's own lock — staging
// does not touch the kernel lock and moves nothing a cached verdict is
// stamped with, which is exactly why programs reading pool vectors (OpVecLd)
// are never certified pure.
func (k *Kernel) SetVec(id int64, v []int64) error {
	slot, ok := k.def.route.Load().vecs[id]
	if !ok {
		return fmt.Errorf("%w: vec %d", ErrNotFound, id)
	}
	slot.store(v)
	return nil
}

// RegisterHelper adds a helper at an explicit id (standard helpers occupy
// ids < 100; subsystem helpers should use ids >= 100).
func (k *Kernel) RegisterHelper(id int64, spec verifier.HelperSpec, fn HelperFn) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.helpers[id]; dup {
		return fmt.Errorf("%w: helper %d", ErrDuplicate, id)
	}
	k.helpers = withEntry(k.helpers, id, &helper{spec: spec, fn: fn})
	k.rebuildRoutesLocked()
	return nil
}

// verifierConfig snapshots the registries into a verifier.Config, restricted
// to what programs of owner may reference: a tenant's programs see the
// tenant's own and the default tenant's resources; the default (admin)
// tenant's programs see everything. A tenant step-budget quota tightens the
// verifier's step budget. Caller holds at least the read lock.
func (k *Kernel) verifierConfig(owner string) verifier.Config {
	visible := func(o string) bool { return owner == "" || o == "" || o == owner }
	cfg := verifier.Config{
		Helpers:    make(map[int64]verifier.HelperSpec, len(k.helpers)),
		Models:     make(map[int64]verifier.ModelCost, len(k.models)),
		Mats:       make(map[int64]verifier.MatShape, len(k.mats)),
		Tables:     make(map[int64]bool, len(k.tables)),
		Vecs:       make(map[int64]int, len(k.vecs)),
		Tails:      make(map[int64]*isa.Program, len(k.progs)),
		OpsBudget:  k.cfg.OpsBudget,
		MemBudget:  k.cfg.MemBudget,
		StepBudget: k.cfg.StepBudget,
		CtxFields:  k.cfg.CtxFields,
	}
	if owner != "" {
		if ts, ok := k.tenants[owner]; ok && ts.quota.StepBudget > 0 {
			if cfg.StepBudget == 0 || ts.quota.StepBudget < cfg.StepBudget {
				cfg.StepBudget = ts.quota.StepBudget
			}
		}
	}
	for id, h := range k.helpers {
		cfg.Helpers[id] = h.spec
	}
	for id, m := range k.models {
		if !visible(k.modelOwner[id]) {
			continue
		}
		ops, bytes := m.Cost()
		cfg.Models[id] = verifier.ModelCost{Ops: ops, Bytes: bytes}
	}
	for id, m := range k.mats {
		cfg.Mats[id] = verifier.MatShape{In: m.In, Out: m.Out, Bytes: m.Bytes()}
	}
	for id, t := range k.tables {
		if visible(tenantOf(t.Name)) {
			cfg.Tables[id] = true
		}
	}
	for id, slot := range k.vecs {
		slot.mu.RLock()
		cfg.Vecs[id] = len(slot.v)
		slot.mu.RUnlock()
	}
	for id, p := range k.progs {
		if visible(tenantOf(p.prog.Name)) {
			cfg.Tails[id] = p.prog
		}
	}
	return cfg
}

// InstallProgram admits a program: verify against the current registries,
// compile for both engines, and register it for ActionProgram entries and
// tail calls. It returns the program id and the verifier's report.
//
// Verification and compilation run against a registry snapshot outside the
// kernel lock (JIT compilation resolves tail-call targets through the same
// read paths the datapath uses). Resources removed concurrently are caught
// at runtime by the VM's fail-soft checks.
func (k *Kernel) InstallProgram(prog *isa.Program) (int64, *verifier.Report, error) {
	return k.installProgram(prog, 0)
}

// InstallProgramAt admits a program at an explicit id — the checkpoint
// restore path, where removed programs may have left holes in the id space
// that replayed references must line up with — or at the next id when id is
// 0 (InstallProgram). Restored ids must arrive in ascending order; the
// allocator resumes after the highest.
func (k *Kernel) InstallProgramAt(id int64, prog *isa.Program) (int64, *verifier.Report, error) {
	if id < 0 {
		return 0, nil, fmt.Errorf("core: restore program id %d: negative", id)
	}
	return k.installProgram(prog, id)
}

func (k *Kernel) installProgram(prog *isa.Program, forceID int64) (int64, *verifier.Report, error) {
	owner := tenantOf(prog.Name)
	// The restore path (forceID > 0) replays already-admitted programs and
	// skips quota caps — see CreateTableAt.
	enforceQuota := forceID == 0
	k.mu.RLock()
	_, dup := k.progIDs[prog.Name]
	if owner != "" {
		ts, ok := k.tenants[owner]
		if !ok {
			k.mu.RUnlock()
			return 0, nil, fmt.Errorf("%w: %q", qos.ErrTenantUnknown, owner)
		}
		if enforceQuota && ts.quota.MaxPrograms > 0 && ts.nProgs >= ts.quota.MaxPrograms {
			k.mu.RUnlock()
			return 0, nil, fmt.Errorf("%w: tenant %q at %d programs", qos.ErrQuotaExceeded, owner, ts.nProgs)
		}
	}
	vcfg := k.verifierConfig(owner)
	k.mu.RUnlock()
	if dup {
		return 0, nil, fmt.Errorf("%w: program %q", ErrDuplicate, prog.Name)
	}
	// Clone before verification so the caller's Program is never mutated:
	// the verifier's artifacts (per-instruction check proofs, helper
	// contracts, the cost certificate and the interval facts) are attached
	// to the admitted copy only, and only after the program passed — an
	// unadmitted program carries none.
	prog = prog.Clone()
	report, err := verifier.Verify(prog, vcfg)
	if err != nil {
		return 0, nil, fmt.Errorf("core: admission of %q failed: %w", prog.Name, err)
	}
	prog.Proofs = report.Proofs
	prog.HelperContracts = report.HelperContracts
	prog.StaticSteps = report.MaxSteps
	prog.Pure = report.Pure
	prog.Facts = report.Facts
	interp, err := vm.NewInterpreter(prog)
	if err != nil {
		return 0, nil, err
	}
	checked, err := vm.NewCheckedInterpreter(prog)
	if err != nil {
		return 0, nil, err
	}
	jit, err := vm.Compile(&env{k: k, rt: k.def.route.Load()}, prog)
	if err != nil {
		return 0, nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.progIDs[prog.Name]; dup {
		return 0, nil, fmt.Errorf("%w: program %q", ErrDuplicate, prog.Name)
	}
	ts := k.def
	if owner != "" {
		var ok bool
		if ts, ok = k.tenants[owner]; !ok {
			return 0, nil, fmt.Errorf("%w: %q", qos.ErrTenantUnknown, owner)
		}
		// Recheck under the write lock: the RLock-time check can race a
		// concurrent install of the same tenant.
		if enforceQuota && ts.quota.MaxPrograms > 0 && ts.nProgs >= ts.quota.MaxPrograms {
			return 0, nil, fmt.Errorf("%w: tenant %q at %d programs", qos.ErrQuotaExceeded, owner, ts.nProgs)
		}
	}
	id, err := allocID(&k.nextProg, forceID, "program")
	if err != nil {
		return 0, nil, err
	}
	hash := aot.Hash(prog)
	aotFn, _ := aot.Lookup(hash)
	k.progs[id] = &progEntry{
		id: id, prog: prog, interp: interp, jit: jit, report: report,
		aot: aotFn, hash: hash, checked: checked, checkable: k.checkableLocked(prog),
	}
	k.progIDs[prog.Name] = id
	ts.nProgs++
	// A restore starts every hook afresh; a live install only adds.
	k.publishOwnedLocked(owner, forceID == 0)
	k.Metrics.Counter("core.programs_installed").Inc()
	return id, report, nil
}

// checkableLocked reports whether a program's execution is deterministic
// enough for the sentinel's sampled differential re-run: neither it nor any
// program in its tail-call closure may use the differentially-private
// aggregate helpers (re-running those double-charges the privacy budget and
// diverges on fresh noise). Caller holds k.mu.
func (k *Kernel) checkableLocked(prog *isa.Program) bool {
	seen := make(map[int64]bool)
	var walk func(p *isa.Program) bool
	walk = func(p *isa.Program) bool {
		for _, hid := range p.Helpers {
			if hid == HelperCtxSum || hid == HelperCtxCount {
				return false
			}
		}
		for _, tid := range p.Tails {
			if seen[tid] {
				continue
			}
			seen[tid] = true
			if tp, ok := k.progs[tid]; ok && !walk(tp.prog) {
				return false
			}
		}
		return true
	}
	return walk(prog)
}

// RemoveProgram uninstalls a program. Table entries referencing it fail soft
// (Fire skips missing programs and applies the default action).
func (k *Kernel) RemoveProgram(id int64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.progs[id]
	if !ok {
		return fmt.Errorf("%w: program %d", ErrNotFound, id)
	}
	delete(k.progs, id)
	delete(k.progIDs, p.prog.Name)
	owner := tenantOf(p.prog.Name)
	if ts, ok := k.tenants[owner]; ok {
		ts.nProgs--
	} else if owner == "" {
		k.def.nProgs--
	}
	k.rebuildOwnedLocked(owner)
	return nil
}

// ProgramID resolves a program id by name.
func (k *Kernel) ProgramID(name string) (int64, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	id, ok := k.progIDs[name]
	if !ok {
		return 0, fmt.Errorf("%w: program %q", ErrNotFound, name)
	}
	return id, nil
}

// Hooks lists hook names with attached datapaths.
func (k *Kernel) Hooks() []string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	out := make([]string, 0, len(k.hooks))
	for h := range k.hooks {
		out = append(out, h)
	}
	return out
}
