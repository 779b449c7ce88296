package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/qos"
	"rmtk/internal/table"
)

// Tenancy-layer tests: namespace isolation of routes and verdict caches,
// quota enforcement, admission shedding/degradation, weighted-fair drain, and
// per-tenant breaker isolation.

// addTenantTable creates "tenant:name" attached to the tenant's hook (plain
// hook name h) with one ActionParam entry: key -> verdict.
func addTenantTable(t *testing.T, k *Kernel, tenant, name, hook string, key uint64, verdict int64) *table.Table {
	t.Helper()
	tb := table.New(TenantName(tenant, name), TenantName(tenant, hook), table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatalf("create %s table: %v", tenant, err)
	}
	if err := tb.Insert(&table.Entry{Key: key, Action: table.Action{Kind: table.ActionParam, Param: verdict}}); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestRegisterTenantValidation(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("acme", TenantQuota{}); err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterTenant("acme", TenantQuota{}); !errors.Is(err, qos.ErrTenantExists) {
		t.Fatalf("dup register err = %v", err)
	}
	if err := k.RegisterTenant("a:b", TenantQuota{}); !errors.Is(err, qos.ErrInvalidTenant) {
		t.Fatalf("invalid name err = %v", err)
	}
	if err := k.RegisterTenant("", TenantQuota{}); !errors.Is(err, qos.ErrInvalidTenant) {
		t.Fatalf("empty name err = %v", err)
	}
}

func TestTenantFireIsolation(t *testing.T) {
	k := NewKernel(Config{})
	for _, tn := range []string{"alpha", "beta"} {
		if err := k.RegisterTenant(tn, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
	}
	addTenantTable(t, k, "alpha", "tab", "net/rx", 1, 100)
	addTenantTable(t, k, "beta", "tab", "net/rx", 1, 200)

	ra, err := k.FireTenant("alpha", "net/rx", 1, 0, 0)
	if err != nil || ra.Verdict != 100 {
		t.Fatalf("alpha fire = %+v err %v", ra, err)
	}
	rb, err := k.FireTenant("beta", "net/rx", 1, 0, 0)
	if err != nil || rb.Verdict != 200 {
		t.Fatalf("beta fire = %+v err %v", rb, err)
	}
	// The admin (default) view routes the same pipelines under full names.
	if res := k.Fire("alpha:net/rx", 1, 0, 0); res.Verdict != 100 {
		t.Fatalf("admin view of alpha hook = %+v", res)
	}
	// A tenant never routes another tenant's (or the default's) hooks.
	if res, err := k.FireTenant("alpha", "beta:net/rx", 1, 0, 0); err != nil || res.Matched != 0 {
		t.Fatalf("cross-tenant fire = %+v err %v", res, err)
	}
	if _, err := k.FireTenant("nobody", "net/rx", 1, 0, 0); !errors.Is(err, qos.ErrTenantUnknown) {
		t.Fatalf("unknown tenant err = %v", err)
	}
}

// TestTenantVerdictCacheIsolation is the COW-snapshot refactor's contract:
// one tenant's table churn must not invalidate another tenant's cached
// verdicts.
func TestTenantVerdictCacheIsolation(t *testing.T) {
	k := NewKernel(Config{})
	for _, tn := range []string{"alpha", "beta"} {
		if err := k.RegisterTenant(tn, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
	}
	ta := addTenantTable(t, k, "alpha", "tab", "h", 1, 100)
	addTenantTable(t, k, "beta", "tab", "h", 1, 200)

	// Warm both tenants' caches: two misses (fingerprint, then store) and the
	// third fire replays.
	for _, tn := range []string{"alpha", "beta"} {
		for i := 0; i < 2; i++ {
			if res, err := k.FireTenant(tn, "h", 1, 0, 0); err != nil || res.CacheHit {
				t.Fatalf("%s warmup fire %d = %+v err %v", tn, i+1, res, err)
			}
		}
		if res, err := k.FireTenant(tn, "h", 1, 0, 0); err != nil || !res.CacheHit {
			t.Fatalf("%s third fire not cached: %+v err %v", tn, res, err)
		}
	}

	genB := k.TenantGeneration("beta")
	// Rewrite the entry alpha's flow matched: alpha's generation moves, and its
	// verdict dies; beta's do not.
	if !ta.UpdateAction(1, table.Action{Kind: table.ActionParam, Param: 101}) {
		t.Fatal("alpha's key 1 has no entry")
	}
	if k.TenantGeneration("beta") != genB {
		t.Fatal("alpha's table mutation bumped beta's generation")
	}
	if res, _ := k.FireTenant("alpha", "h", 1, 0, 0); res.CacheHit || res.Verdict != 101 {
		t.Fatalf("alpha verdict not invalidated: %+v", res)
	}
	if res, _ := k.FireTenant("beta", "h", 1, 0, 0); !res.CacheHit {
		t.Fatalf("beta verdict wrongly invalidated: %+v", res)
	}
}

func TestTenantQuotaEnforcement(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("acme", TenantQuota{MaxTables: 1, MaxPrograms: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateTable(table.New("acme:t1", "acme:h", table.MatchExact)); err != nil {
		t.Fatal(err)
	}
	_, err := k.CreateTable(table.New("acme:t2", "acme:h", table.MatchExact))
	if !errors.Is(err, qos.ErrQuotaExceeded) {
		t.Fatalf("table quota err = %v", err)
	}
	if _, _, err := k.InstallProgram(&isa.Program{Name: "acme:p1", Insns: isa.MustAssemble("movimm r0, 1\nexit")}); err != nil {
		t.Fatal(err)
	}
	_, _, err = k.InstallProgram(&isa.Program{Name: "acme:p2", Insns: isa.MustAssemble("movimm r0, 2\nexit")})
	if !errors.Is(err, qos.ErrQuotaExceeded) {
		t.Fatalf("program quota err = %v", err)
	}
	// Resources in an unregistered namespace are refused outright.
	if _, err := k.CreateTable(table.New("ghost:t", "ghost:h", table.MatchExact)); !errors.Is(err, qos.ErrTenantUnknown) {
		t.Fatalf("unregistered namespace err = %v", err)
	}
	// Freeing a slot re-admits.
	if err := k.RemoveProgram(mustProgID(t, k, "acme:p1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := k.InstallProgram(&isa.Program{Name: "acme:p3", Insns: isa.MustAssemble("movimm r0, 3\nexit")}); err != nil {
		t.Fatalf("reinstall after removal: %v", err)
	}
}

func mustProgID(t *testing.T, k *Kernel, name string) int64 {
	t.Helper()
	id, err := k.ProgramID(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestTenantStepBudgetQuota: a tenant step budget tightens admission for that
// tenant's programs only.
func TestTenantStepBudgetQuota(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("tiny", TenantQuota{StepBudget: 2}); err != nil {
		t.Fatal(err)
	}
	long := "movimm r0, 1\nadd r0, r0\nadd r0, r0\nadd r0, r0\nexit"
	if _, _, err := k.InstallProgram(&isa.Program{Name: "big", Insns: isa.MustAssemble(long)}); err != nil {
		t.Fatalf("default-tenant program refused: %v", err)
	}
	if _, _, err := k.InstallProgram(&isa.Program{Name: "tiny:big", Insns: isa.MustAssemble(long)}); err == nil {
		t.Fatal("tenant step budget not enforced")
	}
}

func TestTenantAdmissionLadder(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("be", TenantQuota{Class: qos.BestEffort}); err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterTenant("bu", TenantQuota{Class: qos.Burstable, RatePerSec: 100, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	addTenantTable(t, k, "bu", "tab", "h", 1, 7)
	k.RegisterFallback("h", FallbackFunc{Label: "baseline", Fn: func(string, int64, int64, int64) (int64, []int64) {
		return 55, nil
	}})

	var now int64
	clock := func() int64 { return now }
	const winNs = 1_000_000
	k.SetAdmission(qos.NewController(qos.Config{CapacityPerSec: 1000, WindowNs: winNs, ShedMilli: 100_000}, 0), clock)

	// Saturate with best-effort traffic: ~10 fires per 1-fire window.
	var sheds int
	for i := 0; i < 100; i++ {
		now += winNs / 10
		if _, err := k.FireTenant("be", "h", 1, 0, 0); err != nil {
			if !errors.Is(err, qos.ErrAdmissionShed) {
				t.Fatalf("unexpected error: %v", err)
			}
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("best-effort tenant never shed under overload")
	}

	// Burstable over quota degrades to the baseline fallback, never errors.
	var degraded int
	for i := 0; i < 50; i++ {
		now += winNs / 10
		res, err := k.FireTenant("bu", "h", 1, 0, 0)
		if err != nil {
			t.Fatalf("burstable shed below shed threshold: %v", err)
		}
		if res.FellBack {
			degraded++
			if res.Verdict != 55 {
				t.Fatalf("degraded verdict = %d, want baseline 55", res.Verdict)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("burstable tenant never degraded under overload")
	}
	st, err := k.TenantStatus("bu")
	if err != nil || st.Degraded == 0 {
		t.Fatalf("tenant status degraded count = %+v err %v", st, err)
	}
}

func TestFireQueueWeightedDrain(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("heavy", TenantQuota{Class: qos.Burstable, Weight: 3}); err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterTenant("light", TenantQuota{Class: qos.Burstable, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	addTenantTable(t, k, "heavy", "tab", "h", 1, 1)
	addTenantTable(t, k, "light", "tab", "h", 1, 2)

	fq := k.NewFireQueue(0)
	for i := 0; i < 100; i++ {
		for _, tn := range []string{"heavy", "light"} {
			if err := fq.Enqueue(tn, Event{Hook: "h", Key: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := make([]FireResult, 100)
	if n := fq.Drain(100, out); n != 100 {
		t.Fatalf("drained %d, want 100", n)
	}
	hs, _ := k.TenantStatus("heavy")
	ls, _ := k.TenantStatus("light")
	ratio := float64(hs.Fires) / float64(ls.Fires)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("drain ratio heavy:light = %.2f (%d:%d), want ~3", ratio, hs.Fires, ls.Fires)
	}
	if fq.Len() != 100 {
		t.Fatalf("backlog = %d, want 100", fq.Len())
	}
}

func TestFireQueueOverflowSheds(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("t", TenantQuota{}); err != nil {
		t.Fatal(err)
	}
	fq := k.NewFireQueue(2)
	for i := 0; i < 2; i++ {
		if err := fq.Enqueue("t", Event{Hook: "h", Key: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fq.Enqueue("t", Event{Hook: "h", Key: 9}); !errors.Is(err, qos.ErrAdmissionShed) {
		t.Fatalf("overflow err = %v", err)
	}
	st, _ := k.TenantStatus("t")
	if st.Shed != 1 {
		t.Fatalf("shed count = %d, want 1", st.Shed)
	}
}

func TestRemoveTenantTeardown(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("acme", TenantQuota{}); err != nil {
		t.Fatal(err)
	}
	addTenantTable(t, k, "acme", "tab", "h", 1, 7)
	if _, _, err := k.InstallProgram(&isa.Program{Name: "acme:p", Insns: isa.MustAssemble("movimm r0, 1\nexit")}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.RegisterModelOwned("acme", &FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 1}); err != nil {
		t.Fatal(err)
	}
	if err := k.RemoveTenant("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.FireTenant("acme", "h", 1, 0, 0); !errors.Is(err, qos.ErrTenantUnknown) {
		t.Fatalf("fire after teardown err = %v", err)
	}
	if _, _, err := k.TableByName("acme:tab"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("table survived teardown: %v", err)
	}
	if _, err := k.ProgramID("acme:p"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("program survived teardown: %v", err)
	}
	if err := k.RemoveTenant("acme"); !errors.Is(err, qos.ErrTenantUnknown) {
		t.Fatalf("double teardown err = %v", err)
	}
}

// TestTenantTeardownRacesFires: tearing a tenant down while fires are in
// flight must never panic or wedge — racing fires either complete against
// the snapshot they hold or fail with ErrTenantUnknown.
func TestTenantTeardownRacesFires(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("acme", TenantQuota{}); err != nil {
		t.Fatal(err)
	}
	addTenantTable(t, k, "acme", "tab", "h", 1, 7)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := k.FireTenant("acme", "h", 1, 0, 0)
				if err != nil && !errors.Is(err, qos.ErrTenantUnknown) {
					t.Errorf("race fire err = %v", err)
					return
				}
				if err == nil && res.Matched == 1 && res.Verdict != 7 {
					t.Errorf("race fire verdict = %d", res.Verdict)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		k.Fire("h", 1, 0, 0)
	}
	if err := k.RemoveTenant("acme"); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
}

// TestTenantBreakerIsolation: tenants share a default-owned program; tripping
// it in one tenant's supervisor must not quarantine it for the other.
func TestTenantBreakerIsolation(t *testing.T) {
	k := NewKernel(Config{Quarantine: QuarantineConfig{CooldownFires: 1000}})
	k.Supervise(SupervisorConfig{TripConsecutive: 1})
	for _, tn := range []string{"alpha", "beta"} {
		if err := k.RegisterTenant(tn, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
	}
	pid := install(t, k, &isa.Program{Name: "shared", Insns: isa.MustAssemble("movimm r0, 9\nexit")})
	for _, tn := range []string{"alpha", "beta"} {
		tb := table.New(tn+":tab", tn+":h", table.MatchExact)
		if _, err := k.CreateTable(tb); err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
			t.Fatal(err)
		}
	}
	k.RegisterFallback("h", FallbackFunc{Label: "base", Fn: func(string, int64, int64, int64) (int64, []int64) {
		return 5, nil
	}})

	k.TenantSupervisor("alpha").Trip(pid)

	ra, err := k.FireTenant("alpha", "h", 1, 0, 0)
	if err != nil || !ra.FellBack || ra.Verdict != 5 {
		t.Fatalf("alpha quarantined fire = %+v err %v", ra, err)
	}
	rb, err := k.FireTenant("beta", "h", 1, 0, 0)
	if err != nil || rb.FellBack || rb.Verdict != 9 {
		t.Fatalf("beta fire (must be unaffected) = %+v err %v", rb, err)
	}
	if st := k.TenantSupervisor("beta").State(pid); st != BreakerClosed {
		t.Fatalf("beta breaker state = %v, want closed", st)
	}
}

// TestQuotaChangeMidFlight: a quota change applies to subsequent admissions
// without disturbing datapath state.
func TestQuotaChangeMidFlight(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("acme", TenantQuota{Class: qos.Guaranteed, RatePerSec: 1000, Burst: 100}); err != nil {
		t.Fatal(err)
	}
	addTenantTable(t, k, "acme", "tab", "h", 1, 7)
	var now int64
	k.SetAdmission(qos.NewController(qos.Config{CapacityPerSec: 1_000_000}, 0), func() int64 { return now })
	if _, err := k.FireTenant("acme", "h", 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	gen := k.TenantGeneration("acme")
	if err := k.SetTenantQuota("acme", TenantQuota{Class: qos.BestEffort}); err != nil {
		t.Fatal(err)
	}
	if k.TenantGeneration("acme") != gen {
		t.Fatal("pure quota change republished the datapath")
	}
	q, err := k.TenantQuotaOf("acme")
	if err != nil || q.Class != qos.BestEffort {
		t.Fatalf("quota after change = %+v err %v", q, err)
	}
	if err := k.SetTenantQuota("ghost", TenantQuota{}); !errors.Is(err, qos.ErrTenantUnknown) {
		t.Fatalf("unknown tenant quota err = %v", err)
	}
}

// TestZeroQuotaTenant: a zero-rate guaranteed tenant is still admitted under
// light load (capacity is free) and never rejected with an error.
func TestZeroQuotaTenant(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("zero", TenantQuota{Class: qos.Guaranteed}); err != nil {
		t.Fatal(err)
	}
	addTenantTable(t, k, "zero", "tab", "h", 1, 7)
	var now int64
	k.SetAdmission(qos.NewController(qos.Config{CapacityPerSec: 1_000_000}, 0), func() int64 { return now })
	for i := 0; i < 100; i++ {
		now += 1_000_000
		res, err := k.FireTenant("zero", "h", 1, 0, 0)
		if err != nil {
			t.Fatalf("zero-quota guaranteed fire rejected: %v", err)
		}
		if res.Verdict != 7 {
			t.Fatalf("verdict = %d", res.Verdict)
		}
	}
}

// TestCrossTenantHookRejected: a table must live in its hook's namespace —
// an attached table executes inside the hook owner's datapath, so a
// cross-tenant attachment would run one tenant's pipeline code in another's.
func TestCrossTenantHookRejected(t *testing.T) {
	k := NewKernel(Config{})
	for _, tn := range []string{"alpha", "beta"} {
		if err := k.RegisterTenant(tn, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
	}
	addTenantTable(t, k, "alpha", "tab", "h", 1, 100)
	for _, tc := range []struct{ name, hook string }{
		{"beta:evil", "alpha:h"}, // tenant table on a foreign tenant's hook
		{"evil", "alpha:h"},      // default-owned table on a tenant hook
		{"beta:evil", "h"},       // tenant table on a default hook
	} {
		if _, err := k.CreateTable(table.New(tc.name, tc.hook, table.MatchExact)); !errors.Is(err, qos.ErrCrossTenant) {
			t.Fatalf("CreateTable(%q on %q) err = %v, want ErrCrossTenant", tc.name, tc.hook, err)
		}
		if _, err := k.CreateTableAt(99, table.New(tc.name, tc.hook, table.MatchExact)); !errors.Is(err, qos.ErrCrossTenant) {
			t.Fatalf("CreateTableAt(%q on %q) err = %v, want ErrCrossTenant", tc.name, tc.hook, err)
		}
	}
	// Alpha's pipeline is untouched by the rejected attachments.
	if res, err := k.FireTenant("alpha", "h", 1, 0, 0); err != nil || res.Verdict != 100 || res.Matched != 1 {
		t.Fatalf("alpha fire = %+v err %v", res, err)
	}
}

// TestFireQueueOverflowDoesNotChargeAdmission: a fire shed on tenant-queue
// backlog must not consume a token or count as admitted — the overflow check
// runs before the admission controller is consulted, so under backlog a fire
// is charged exactly once or not at all.
func TestFireQueueOverflowDoesNotChargeAdmission(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterTenant("t", TenantQuota{Class: qos.Guaranteed, RatePerSec: 1, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	ctl := qos.NewController(qos.Config{CapacityPerSec: 1000}, 0)
	k.SetAdmission(ctl, func() int64 { return 0 })
	fq := k.NewFireQueue(1)
	if err := fq.Enqueue("t", Event{Hook: "h", Key: 1}); err != nil {
		t.Fatal(err)
	}
	err := fq.Enqueue("t", Event{Hook: "h", Key: 2})
	if !errors.Is(err, qos.ErrAdmissionShed) || !errors.Is(err, qos.ErrQueueOverflow) {
		t.Fatalf("overflow err = %v, want ErrAdmissionShed+ErrQueueOverflow", err)
	}
	for _, st := range ctl.Stats() {
		if st.Name == "t" && (st.Offered != 1 || st.Admitted != 1 || st.Shed != 0) {
			t.Fatalf("controller charged for the overflow-shed fire: %+v", st)
		}
	}
	st, _ := k.TenantStatus("t")
	if st.Shed != 1 {
		t.Fatalf("tenant shed count = %d, want 1", st.Shed)
	}
}

// newDrainKernel registers tenants alpha and beta, each with a table at its
// hook "h" whose keys 0..7 run one pure, inferring program of the default
// tenant; every other key misses the table.
func newDrainKernel(t *testing.T) *Kernel {
	t.Helper()
	k := NewKernel(Config{})
	modelID := k.RegisterModel(&FuncModel{Fn: func(x []int64) int64 { return 10*x[0] + x[1] }, Feats: 2})
	pid := install(t, k, &isa.Program{Name: "drain_pure", Models: []int64{modelID},
		Insns: isa.MustAssemble(fmt.Sprintf("veczero v0, 2\nvecset v0, 0, r1\nvecset v0, 1, r2\nmlinfer r0, v0, %d\nexit", modelID))})
	for _, tn := range []string{"alpha", "beta"} {
		if err := k.RegisterTenant(tn, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
		tb := table.New(TenantName(tn, "tab"), TenantName(tn, "h"), table.MatchExact)
		if _, err := k.CreateTable(tb); err != nil {
			t.Fatal(err)
		}
		for key := uint64(0); key < 8; key++ {
			if err := tb.Insert(&table.Entry{Key: key, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return k
}

// TestDrainBooksEachTenant: a FireQueue.Drain interleaving two tenants' cached
// and uncached fires keeps one dispatch record for the whole drain, so its
// books must be settled whenever the record moves to the other tenant: each
// tenant's verdict-cache stats, and the kernel-wide fire, inference and step
// counts, must equal those of the same fires issued one by one through
// FireTenant.
func TestDrainBooksEachTenant(t *testing.T) {
	kd, ks := newDrainKernel(t), newDrainKernel(t)
	type fired struct {
		tenant string
		ev     Event
	}
	var order []fired
	fq := kd.NewFireQueue(0)
	for i := int64(0); i < 400; i++ {
		tn := []string{"alpha", "beta"}[i%2]
		ev := Event{Hook: "h", Key: i % 10, Arg2: i % 3}
		if i%5 == 0 {
			ev.Arg3 = 1000 + i // a new flow: declined, never replayed
		}
		queued := ev
		queued.Prep = func() { order = append(order, fired{tn, ev}) }
		if err := fq.Enqueue(tn, queued); err != nil {
			t.Fatal(err)
		}
	}
	var got []FireResult
	out := make([]FireResult, 48)
	for fq.Len() > 0 {
		n := fq.Drain(len(out), out)
		got = append(got, out[:n]...)
	}
	if len(got) != 400 || len(order) != 400 {
		t.Fatalf("drained %d fires (%d preps), want 400", len(got), len(order))
	}
	if n := fq.Drain(len(out), out); n != 0 { // a drain that never begins settles nothing
		t.Fatalf("an empty queue drained %d fires", n)
	}
	for i, f := range order {
		want, err := ks.FireTenant(f.tenant, f.ev.Hook, f.ev.Key, f.ev.Arg2, f.ev.Arg3)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Verdict != want.Verdict || got[i].Matched != want.Matched ||
			got[i].Steps != want.Steps || got[i].CacheHit != want.CacheHit {
			t.Fatalf("fire %d (%s) diverges: drained %+v, one by one %+v", i, f.tenant, got[i], want)
		}
	}
	for _, tn := range []string{"alpha", "beta"} {
		d, _ := kd.TenantVerdictCacheStats(tn)
		s, _ := ks.TenantVerdictCacheStats(tn)
		if d != s || d.Hits == 0 || d.Declined == 0 {
			t.Errorf("%s verdict cache: drained %+v, one by one %+v (want equal, with hits and declines)", tn, d, s)
		}
	}
	type kernelCounts struct{ fires, infers, steps, stepSum int64 }
	counts := func(k *Kernel) kernelCounts {
		return kernelCounts{k.ctrFires.Load(), k.ctrInfers.Load(), k.histSteps.Count(), k.histSteps.Sum()}
	}
	if d, s := counts(kd), counts(ks); d != s {
		t.Errorf("kernel-wide counts: drained %+v, one by one %+v", d, s)
	}
}
