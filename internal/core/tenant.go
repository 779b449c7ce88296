package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"rmtk/internal/qos"
	"rmtk/internal/table"
	"rmtk/internal/telemetry"
)

// This file implements the kernel's tenancy layer. Tenants are namespaces over
// the existing name-keyed registries: a tenant's resources are named
// "tenant:resource" (qos.NameSeparator), the default tenant's are unprefixed.
// Because the WAL and checkpoints are name-keyed too, tenant resources
// replay and restore through the existing durability machinery unchanged.
//
// Each tenant carries its own copy-on-write route snapshot, datapath
// generation, flush counter and verdict cache — the per-tenant form of the
// global COW snapshot the hot path always used. Control-plane mutations
// republish only the owning tenant (plus the admin view), so one tenant's
// churn never touches another's cached verdicts. Per-tenant supervisors
// give the same isolation for circuit breakers: tenant A's trips never
// quarantine tenant B's programs, even when both run the same shared program.

// nameSep aliases qos.NameSeparator for prefix checks in this package.
const nameSep = qos.NameSeparator

// tenantVCacheCap is the per-shard verdict-cache capacity of one tenant
// (smaller than the default tenant's: many tenants share the heap). It also
// bounds the cache's admission doorkeeper: 16 KB once a tenant fires, growing
// with the flows it sees to at most 128 KB.
const tenantVCacheCap = 1024

// tenantSeriesCap bounds the per-tenant telemetry series the registry holds
// (telemetry.SeriesVec): beyond this many live tenant labels, the coldest
// series is evicted rather than the registry growing without bound.
const tenantSeriesCap = 128

// TenantQuota is a tenant's resource contract: its QoS class and reserved
// fire rate (enforced by the admission controller), its weighted-fair share,
// and hard caps on control-plane resources (enforced at admission of tables
// and programs).
type TenantQuota struct {
	// Class is the tenant's QoS tier (guaranteed / burstable / best-effort).
	Class qos.Class
	// RatePerSec is the reserved fire rate backing the tenant's token bucket
	// (0 = no reservation).
	RatePerSec int64
	// Burst is the token-bucket depth (<=0 selects 1 when RatePerSec > 0).
	Burst int64
	// Weight is the tenant's weighted-fair share within its class band
	// (<=0 selects 1).
	Weight int
	// MaxTables / MaxPrograms cap the tenant's registered resources
	// (0 = unlimited).
	MaxTables   int
	MaxPrograms int
	// StepBudget tightens the verifier's per-program step budget for this
	// tenant's programs (0 = kernel default).
	StepBudget int64
	// StepSLO / LatencySLONs override the supervisor SLOs for this tenant's
	// circuit breakers (0 = supervisor default).
	StepSLO      int64
	LatencySLONs int64
}

// tenantState is one tenant's hot-path view: its own COW route snapshot,
// datapath generation, flush counter, verdict cache and supervisor, plus quota
// accounting.
type tenantState struct {
	name  string
	quota TenantQuota // mutated under k.mu

	// qclass/qweight mirror quota.Class/Weight for lock-free reads on the
	// fire-queue enqueue path.
	qclass  atomic.Int32
	qweight atomic.Int32

	route atomic.Pointer[routes]
	gen   atomic.Uint64
	// flush is the coarsest component of a verdict stamp and the generation
	// vcache stores under: every publish that is not a plain resource addition
	// (publishTenantLocked) and every sentinel incident (flushVerdicts)
	// advances it. Fires load it before route.
	flush  atomic.Uint64
	vcache *table.FlowCache[*cachedFire]
	// rejected counts the stored fires check turned away, by stale* reason.
	rejected [staleKinds]atomic.Int64
	sup      *Supervisor // per-tenant breakers; nil when the kernel is unsupervised

	nTables int // under k.mu
	nProgs  int // under k.mu

	fires    atomic.Int64 // full-datapath fires executed
	degraded atomic.Int64 // fires degraded to the baseline fallback
	shed     atomic.Int64 // fires shed by admission control

	// cFires/cDegraded/cShed are the tenant's labeled telemetry series
	// (nil for the default tenant), resolved once at registration so the
	// fire path never takes the series-vec lock.
	cFires    *telemetry.Counter
	cDegraded *telemetry.Counter
	cShed     *telemetry.Counter
}

// markFire/markDegraded/markShed bump the per-tenant accounting plus the
// labeled telemetry series when one exists.
func (ts *tenantState) markFire() {
	ts.fires.Add(1)
	if ts.cFires != nil {
		ts.cFires.Inc()
	}
}

func (ts *tenantState) markDegraded() {
	ts.degraded.Add(1)
	if ts.cDegraded != nil {
		ts.cDegraded.Inc()
	}
}

func (ts *tenantState) markShed() {
	ts.shed.Add(1)
	if ts.cShed != nil {
		ts.cShed.Inc()
	}
}

// setQuota records a quota and refreshes the lock-free mirrors. Caller holds
// k.mu.
func (ts *tenantState) setQuota(q TenantQuota) {
	ts.quota = q
	ts.qclass.Store(int32(q.Class))
	w := q.Weight
	if w <= 0 {
		w = 1
	}
	ts.qweight.Store(int32(w))
}

// admissionSpec maps the quota onto the admission controller's contract.
func (ts *tenantState) admissionSpec() qos.TenantSpec {
	return qos.TenantSpec{
		Name:       ts.name,
		Class:      ts.quota.Class,
		RatePerSec: ts.quota.RatePerSec,
		Burst:      ts.quota.Burst,
		Weight:     ts.quota.Weight,
	}
}

// admission pairs the attached controller with its clock, behind one atomic
// pointer so the fire path reads both consistently.
type admission struct {
	ctl *qos.Controller
	now func() int64
}

// tenantOf extracts the owning tenant from a namespaced resource name
// ("" for default-tenant resources).
func tenantOf(name string) string {
	if i := strings.Index(name, qos.NameSeparator); i >= 0 {
		return name[:i]
	}
	return ""
}

// TenantName places a resource name in a tenant's namespace ("" passes the
// name through to the default tenant).
func TenantName(tenant, name string) string {
	if tenant == "" {
		return name
	}
	return tenant + qos.NameSeparator + name
}

// storeDirLocked republishes the lock-free tenant directory. Caller holds
// k.mu.
func (k *Kernel) storeDirLocked() {
	dir := make(map[string]*tenantState, len(k.tenants))
	for n, ts := range k.tenants {
		dir[n] = ts
	}
	k.tdir.Store(&dir)
}

// tenant resolves a tenant lock-free ("" is the default tenant; nil for
// unknown names).
func (k *Kernel) tenant(name string) *tenantState {
	if name == "" {
		return k.def
	}
	if dir := k.tdir.Load(); dir != nil {
		return (*dir)[name]
	}
	return nil
}

// RegisterTenant creates a tenant namespace with the given quota. The
// tenant's route snapshot, generation, verdict cache and (if the kernel is
// supervised) supervisor are its own from the first fire.
func (k *Kernel) RegisterTenant(name string, q TenantQuota) error {
	if err := qos.ValidName(name); err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.tenants[name]; dup {
		return fmt.Errorf("%w: %q", qos.ErrTenantExists, name)
	}
	ts := &tenantState{name: name}
	ts.setQuota(q)
	if !k.cfg.DisableVerdictCache {
		ts.vcache = table.NewFlowCache[*cachedFire](coreShards, tenantVCacheCap)
	}
	ts.sup = k.tenantSupervisorLocked(q)
	ts.cFires = k.Metrics.SeriesVec("core.tenant.fires", tenantSeriesCap).Counter(name)
	ts.cDegraded = k.Metrics.SeriesVec("core.tenant.degraded", tenantSeriesCap).Counter(name)
	ts.cShed = k.Metrics.SeriesVec("core.tenant.shed", tenantSeriesCap).Counter(name)
	k.tenants[name] = ts
	k.storeDirLocked()
	k.publishTenantLocked(ts, false)
	k.syncAdmissionLocked(ts)
	k.Metrics.Counter("core.tenants_registered").Inc()
	return nil
}

// SetTenantQuota replaces a tenant's quota in place. The admission contract
// is re-rated (accumulated tokens clamp to the new burst); breaker state
// survives unless the tenant's SLO overrides changed.
func (k *Kernel) SetTenantQuota(name string, q TenantQuota) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	ts, ok := k.tenants[name]
	if !ok {
		return fmt.Errorf("%w: %q", qos.ErrTenantUnknown, name)
	}
	old := ts.quota
	ts.setQuota(q)
	if old.StepSLO != q.StepSLO || old.LatencySLONs != q.LatencySLONs {
		ts.sup = k.tenantSupervisorLocked(q)
		k.publishTenantLocked(ts, false)
	}
	k.syncAdmissionLocked(ts)
	return nil
}

// RemoveTenant tears a tenant down: its tables, programs and models are
// unregistered, its admission contract is dropped, and subsequent FireTenant
// calls fail with ErrTenantUnknown. In-flight fires racing the teardown
// complete against the snapshot they already hold and fail soft thereafter.
func (k *Kernel) RemoveTenant(name string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.tenants[name]; !ok {
		return fmt.Errorf("%w: %q", qos.ErrTenantUnknown, name)
	}
	prefix := name + qos.NameSeparator
	for id, t := range k.tables {
		if strings.HasPrefix(t.Name, prefix) {
			k.removeTableLocked(id, t)
		}
	}
	for id, p := range k.progs {
		if strings.HasPrefix(p.prog.Name, prefix) {
			delete(k.progs, id)
			delete(k.progIDs, p.prog.Name)
		}
	}
	for id, owner := range k.modelOwner {
		if owner == name {
			delete(k.models, id)
			delete(k.modelOwner, id)
		}
	}
	delete(k.tenants, name)
	k.storeDirLocked()
	k.rebuildRoutesLocked()
	if a := k.adm.Load(); a != nil {
		a.ctl.RemoveTenant(name)
	}
	k.Metrics.SeriesVec("core.tenant.fires", tenantSeriesCap).Forget(name)
	k.Metrics.SeriesVec("core.tenant.degraded", tenantSeriesCap).Forget(name)
	k.Metrics.SeriesVec("core.tenant.shed", tenantSeriesCap).Forget(name)
	k.Metrics.Counter("core.tenants_removed").Inc()
	return nil
}

// TenantNames lists registered tenants in sorted order (the default tenant is
// implicit and not listed).
func (k *Kernel) TenantNames() []string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	out := make([]string, 0, len(k.tenants))
	for n := range k.tenants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TenantQuotaOf reports a tenant's current quota.
func (k *Kernel) TenantQuotaOf(name string) (TenantQuota, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	ts, ok := k.tenants[name]
	if !ok {
		return TenantQuota{}, fmt.Errorf("%w: %q", qos.ErrTenantUnknown, name)
	}
	return ts.quota, nil
}

// TenantStatus is one tenant's observable state: quota, resource counts,
// fire-path accounting and datapath generation.
type TenantStatus struct {
	Name         string
	Quota        TenantQuota
	Tables       int
	Programs     int
	Fires        int64
	Degraded     int64
	Shed         int64
	Generation   uint64
	VerdictCache table.FlowCacheStats
	// Invalidated splits VerdictCache.Invalidations by what had changed.
	Invalidated StaleCounts
	Quarantined []int64
}

// TenantStatus reports one tenant's state ("" reports the default tenant).
func (k *Kernel) TenantStatus(name string) (TenantStatus, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	ts := k.def
	if name != "" {
		var ok bool
		if ts, ok = k.tenants[name]; !ok {
			return TenantStatus{}, fmt.Errorf("%w: %q", qos.ErrTenantUnknown, name)
		}
	}
	st := TenantStatus{
		Name:       name,
		Quota:      ts.quota,
		Tables:     ts.nTables,
		Programs:   ts.nProgs,
		Fires:      ts.fires.Load(),
		Degraded:   ts.degraded.Load(),
		Shed:       ts.shed.Load(),
		Generation: ts.gen.Load(),
	}
	st.VerdictCache, st.Invalidated = ts.cacheStats()
	if ts.sup != nil {
		st.Quarantined = ts.sup.Quarantined()
	}
	return st, nil
}

// SetAdmission attaches an admission controller to the fire path with the
// clock it charges (nil now selects the wall clock; experiments pass their
// virtual clocks). Registered tenants' contracts are synced into the
// controller; nil ctl detaches. FireTenant consults the controller before any
// datapath work.
func (k *Kernel) SetAdmission(ctl *qos.Controller, now func() int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if ctl == nil {
		k.adm.Store(nil)
		return
	}
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	a := &admission{ctl: ctl, now: now}
	k.adm.Store(a)
	for _, ts := range k.tenants {
		ctl.SetTenant(ts.admissionSpec(), now())
	}
}

// syncAdmissionLocked pushes one tenant's contract into the attached
// controller. Caller holds k.mu.
func (k *Kernel) syncAdmissionLocked(ts *tenantState) {
	if a := k.adm.Load(); a != nil {
		a.ctl.SetTenant(ts.admissionSpec(), a.now())
	}
}

// FireTenant dispatches one event through a tenant's datapath, running the
// admission ladder first: a shed fire returns ErrAdmissionShed without
// touching the datapath, a degraded fire runs only the hook's baseline
// fallback, an admitted fire runs the tenant's full pipeline against the
// tenant's own route snapshot and verdict cache. Hook names are the tenant's
// plain (unprefixed) names.
func (k *Kernel) FireTenant(tenant, hook string, key, arg2, arg3 int64) (FireResult, error) {
	ts := k.tenant(tenant)
	if ts == nil {
		return FireResult{Verdict: DefaultVerdict}, fmt.Errorf("%w: %q", qos.ErrTenantUnknown, tenant)
	}
	if a := k.adm.Load(); a != nil && tenant != "" {
		switch a.ctl.Admit(tenant, a.now()) {
		case qos.Shed:
			ts.markShed()
			k.Metrics.Counter("core.admission_shed").Inc()
			return FireResult{Verdict: DefaultVerdict}, fmt.Errorf("%w: tenant %q at %q", qos.ErrAdmissionShed, tenant, hook)
		case qos.Degrade:
			ts.markDegraded()
			return k.fireDegraded(ts, hook, key, arg2, arg3), nil
		}
	}
	ts.markFire()
	d := dispatch{k: k}
	d.begin(ts)
	res := FireResult{Verdict: DefaultVerdict}
	d.fire(hook, key, arg2, arg3, &res)
	d.release()
	return res, nil
}

// fireDegraded serves one fire with the hook's baseline fallback only — the
// burstable tier's over-quota service under overload. Without a registered
// baseline, or a datapath at the hook to stand in for, the default verdict
// applies (still bounded, still not the learned path).
func (k *Kernel) fireDegraded(ts *tenantState, hook string, key, arg2, arg3 int64) FireResult {
	res := FireResult{Verdict: DefaultVerdict}
	inv := Invocation{Hook: hook, Key: key, Arg2: arg2, Arg3: arg3, emitBudget: k.cfg.RateLimit}
	if hr := ts.route.Load().hooks[hook]; hr != nil {
		inv.fallback = hr.fallback
	}
	k.runFallback(&inv, &res)
	res.Emissions = inv.emissions
	res.RateLimited = inv.rateHits
	k.Metrics.Counter("core.admission_degraded").Inc()
	return res
}

// tenantSupervisorLocked derives a tenant's supervisor from the kernel's
// supervisor config with the quota's SLO overrides applied (nil when the
// kernel is unsupervised). Each tenant gets its own breaker universe, so one
// tenant's trips never quarantine another's use of the same program. Caller
// holds k.mu.
func (k *Kernel) tenantSupervisorLocked(q TenantQuota) *Supervisor {
	if k.supCfg == nil {
		return nil
	}
	cfg := *k.supCfg
	if q.StepSLO > 0 {
		cfg.StepSLO = q.StepSLO
	}
	if q.LatencySLONs > 0 {
		cfg.LatencySLONs = q.LatencySLONs
	}
	return newSupervisor(cfg, k.cfg.Quarantine, k.Metrics)
}
