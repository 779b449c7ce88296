package core

import (
	"errors"
	"testing"

	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
)

// supRig wires one always-succeeding program onto hook "mm/test" and returns
// the kernel and the program id. Faults are driven via the injector so every
// test below is fully deterministic.
func supRig(t *testing.T) (*Kernel, int64) { return supRigCfg(t, Config{}) }

func supRigCfg(t *testing.T, cfg Config) (*Kernel, int64) {
	t.Helper()
	k := NewKernel(cfg)
	tb := table.New("t", "mm/test", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	pid := install(t, k, &isa.Program{
		Name:  "ok",
		Insns: isa.MustAssemble("movimm r0, 42\nexit"),
	})
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	return k, pid
}

// TestBreakerLifecycle walks the full state machine on a deterministic fault
// schedule: closed → (3 consecutive injected traps) → open → fallback fires
// during cooldown → half-open probes → recovery, with every counter asserted.
func TestBreakerLifecycle(t *testing.T) {
	k, pid := supRigCfg(t, Config{Quarantine: QuarantineConfig{CooldownFires: 4, ProbeSuccesses: 2}})
	sup := k.Supervise(SupervisorConfig{
		TripConsecutive: 3,
		JitterFrac:      0, // exact fire counts below
	})
	k.RegisterFallback("mm/*", FallbackFunc{Label: "baseline", Fn: func(hook string, key, arg2, arg3 int64) (int64, []int64) {
		return 7, []int64{key + 1}
	}})
	// Fires 3..5 (0-based) trap; everything after runs clean.
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "mm/test", Kind: fault.KindVMTrap, Start: 3, Count: 3,
	}))

	// Healthy fires.
	for i := 0; i < 3; i++ {
		if res := k.Fire("mm/test", 1, 0, 0); res.Verdict != 42 || res.Trapped || res.FellBack {
			t.Fatalf("healthy fire %d: %+v", i, res)
		}
	}
	// Three consecutive traps → trip on the third.
	for i := 0; i < 3; i++ {
		res := k.Fire("mm/test", 1, 0, 0)
		if !res.Trapped || !errors.Is(res.TrapErr, fault.ErrInjectedTrap) {
			t.Fatalf("fault fire %d: %+v", i, res)
		}
	}
	if sup.State(pid) != BreakerOpen {
		t.Fatalf("state = %v, want open", sup.State(pid))
	}
	if q := sup.Quarantined(); len(q) != 1 || q[0] != pid {
		t.Fatalf("quarantined = %v", q)
	}

	// Cooldown is 4 fires: the first 3 fall back, the 4th probes.
	for i := 0; i < 3; i++ {
		res := k.Fire("mm/test", 1, 0, 0)
		if !res.FellBack || res.Verdict != 7 {
			t.Fatalf("cooldown fire %d: %+v", i, res)
		}
		if len(res.Emissions) != 1 || res.Emissions[0] != 2 {
			t.Fatalf("fallback emissions = %v", res.Emissions)
		}
	}
	// Probe 1 (program is healthy again): runs the program, stays half-open.
	if res := k.Fire("mm/test", 1, 0, 0); res.FellBack || res.Verdict != 42 {
		t.Fatalf("probe 1: %+v", res)
	}
	if sup.State(pid) != BreakerHalfOpen {
		t.Fatalf("state after probe 1 = %v, want half-open", sup.State(pid))
	}
	// Probe 2 closes the breaker.
	if res := k.Fire("mm/test", 1, 0, 0); res.FellBack || res.Verdict != 42 {
		t.Fatalf("probe 2: %+v", res)
	}
	if sup.State(pid) != BreakerClosed {
		t.Fatalf("state after probe 2 = %v, want closed", sup.State(pid))
	}

	trips, fallbacks, probes, recoveries := sup.Counts()
	if trips != 1 || fallbacks != 3 || probes != 2 || recoveries != 1 {
		t.Fatalf("counts = %d/%d/%d/%d, want 1/3/2/1", trips, fallbacks, probes, recoveries)
	}
	// Telemetry mirrors the counts, plus the per-hook error counter.
	for name, want := range map[string]int64{
		"supervisor.trips":          1,
		"supervisor.fallbacks":      3,
		"supervisor.probes":         2,
		"supervisor.recoveries":     1,
		"supervisor.errors.mm/test": 3,
		"core.fallback_decisions":   3,
	} {
		if got := k.Metrics.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if k.Metrics.Histogram("supervisor.fail_steps.mm/test").Count() != 3 {
		t.Error("per-hook failure histogram not populated")
	}
}

// TestTrippedBreakerTicksOncePerFire: the cooldown clock of a tripped breaker
// advances exactly once per fire whether or not the flow's verdict is cached —
// the replay path only asks "closed?", and the slow path it hands the fire to
// takes the one allow(). CooldownFires = n: fallback on fires 1…n−1, probe on
// fire n.
func TestTrippedBreakerTicksOncePerFire(t *testing.T) {
	const n = 5
	for _, uncached := range []bool{false, true} {
		k, pid := supRigCfg(t, Config{DisableVerdictCache: uncached, Quarantine: QuarantineConfig{CooldownFires: n, ProbeSuccesses: 1}})
		sup := k.Supervise(SupervisorConfig{JitterFrac: 0})
		k.RegisterFallback("mm/*", FallbackFunc{Label: "baseline", Fn: func(string, int64, int64, int64) (int64, []int64) {
			return 7, nil
		}})
		var res FireResult
		for i := 0; i < 3; i++ { // decline, store, replay
			res = k.Fire("mm/test", 1, 0, 0)
		}
		if res.Verdict != 42 || res.CacheHit == uncached {
			t.Fatalf("uncached=%v: warm fire = %+v", uncached, res)
		}
		sup.Trip(pid)
		for i := 1; i < n; i++ {
			if res := k.Fire("mm/test", 1, 0, 0); !res.FellBack || res.Verdict != 7 || res.CacheHit {
				t.Fatalf("uncached=%v: cooldown fire %d = %+v, want the fallback", uncached, i, res)
			}
		}
		if res := k.Fire("mm/test", 1, 0, 0); res.FellBack || res.Verdict != 42 || res.CacheHit {
			t.Fatalf("uncached=%v: fire %d = %+v, want the probe", uncached, n, res)
		}
		if _, fallbacks, probes, recoveries := sup.Counts(); fallbacks != n-1 || probes != 1 || recoveries != 1 {
			t.Fatalf("uncached=%v: fallbacks/probes/recoveries = %d/%d/%d, want %d/1/1", uncached, fallbacks, probes, recoveries, n-1)
		}
	}
}

// TestBreakerReopensWithBackoff: a probe that fails re-opens the breaker with
// a doubled cooldown.
func TestBreakerReopensWithBackoff(t *testing.T) {
	k, pid := supRigCfg(t, Config{Quarantine: QuarantineConfig{CooldownFires: 2, ProbeSuccesses: 1}})
	sup := k.Supervise(SupervisorConfig{
		TripConsecutive: 1,
		JitterFrac:      0,
	})
	k.RegisterFallback("mm/*", FallbackFunc{Label: "baseline", Fn: func(string, int64, int64, int64) (int64, []int64) {
		return 7, nil
	}})
	// Fire 0 trips; fire 2 (the first probe, after a 2-fire cooldown) fails
	// too, re-opening with cooldown 4.
	k.SetFaultInjector(fault.NewInjector(1,
		fault.Rule{Target: "mm/test", Kind: fault.KindVMTrap, Start: 0, Count: 1},
		fault.Rule{Target: "mm/test", Kind: fault.KindVMTrap, Start: 2, Count: 1},
	))
	k.Fire("mm/test", 1, 0, 0) // trip
	k.Fire("mm/test", 1, 0, 0) // cooldown fallback (wait 2 → 1)
	if res := k.Fire("mm/test", 1, 0, 0); !res.Trapped {
		t.Fatalf("probe should have run and trapped: %+v", res)
	}
	if sup.State(pid) != BreakerOpen {
		t.Fatalf("state = %v, want re-opened", sup.State(pid))
	}
	if got := k.Metrics.Counter("supervisor.reopens").Load(); got != 1 {
		t.Fatalf("reopens = %d, want 1", got)
	}
	// Doubled cooldown: 3 fallbacks before the next probe runs the program.
	for i := 0; i < 3; i++ {
		if res := k.Fire("mm/test", 1, 0, 0); !res.FellBack || res.Verdict != 7 {
			t.Fatalf("backoff fire %d should fall back: %+v", i, res)
		}
	}
	if res := k.Fire("mm/test", 1, 0, 0); res.FellBack || res.Verdict != 42 {
		t.Fatalf("post-backoff probe: %+v", res)
	}
	if sup.State(pid) != BreakerClosed {
		t.Fatalf("state = %v, want closed after successful probe", sup.State(pid))
	}
}

// TestBreakerWindowedTrip: failures that never run consecutively still trip
// via the K-of-M window.
func TestBreakerWindowedTrip(t *testing.T) {
	k, pid := supRig(t)
	sup := k.Supervise(SupervisorConfig{
		TripConsecutive: 100, // consecutive rule effectively off
		WindowK:         3,
		WindowM:         6,
		JitterFrac:      0,
	})
	// Every other fire traps: 1 consecutive failure max, 3-of-6 at fire 5.
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "mm/test", Kind: fault.KindVMTrap, Every: 2,
	}))
	fired := 0
	for sup.State(pid) == BreakerClosed && fired < 100 {
		k.Fire("mm/test", 1, 0, 0)
		fired++
	}
	if sup.State(pid) != BreakerOpen {
		t.Fatal("windowed trip never happened")
	}
	// Failures land on fires 0,2,4,6; the window fills after 6 fires, so the
	// failure on fire 7 (index 6) is the first one evaluated against a full
	// window — 3-of-6 → trip.
	if fired != 7 {
		t.Fatalf("tripped after %d fires, want 7", fired)
	}
}

// TestStepSLOFailsBreakerButKeepsVerdict: an SLO violation on an otherwise
// successful fire counts against the breaker without suppressing the verdict.
func TestStepSLOFailsBreakerButKeepsVerdict(t *testing.T) {
	k, pid := supRig(t)
	sup := k.Supervise(SupervisorConfig{
		TripConsecutive: 3,
		StepSLO:         1, // the 2-insn program always exceeds this
		JitterFrac:      0,
	})
	for i := 0; i < 2; i++ {
		if res := k.Fire("mm/test", 1, 0, 0); res.Verdict != 42 {
			t.Fatalf("SLO-violating fire %d lost its verdict: %+v", i, res)
		}
	}
	if sup.State(pid) != BreakerClosed {
		t.Fatal("tripped too early")
	}
	if res := k.Fire("mm/test", 1, 0, 0); res.Verdict != 42 {
		t.Fatalf("third fire: %+v", res)
	}
	if sup.State(pid) != BreakerOpen {
		t.Fatal("step SLO violations did not trip the breaker")
	}
	if got := k.Metrics.Counter("core.slo_violations").Load(); got != 3 {
		t.Fatalf("slo_violations = %d, want 3", got)
	}
}

// TestLatencySLO: injected latency spikes are charged to the fire, surfaced
// via DelayNs, and trip the latency SLO.
func TestLatencySLO(t *testing.T) {
	k, pid := supRig(t)
	sup := k.Supervise(SupervisorConfig{
		TripConsecutive: 2,
		LatencySLONs:    1000,
		JitterFrac:      0,
	})
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "mm/test", Kind: fault.KindLatencySpike, LatencyNs: 50_000,
	}))
	for i := 0; i < 2; i++ {
		res := k.Fire("mm/test", 1, 0, 0)
		if res.DelayNs != 50_000 {
			t.Fatalf("fire %d DelayNs = %d, want 50000", i, res.DelayNs)
		}
	}
	if sup.State(pid) != BreakerOpen {
		t.Fatal("latency SLO violations did not trip the breaker")
	}
	// The fires ran clean, so each failure the breaker saw was the latency
	// SLO (StepSLO is off; RecordRun's cause is checked by the differential).
	if got := k.Metrics.Counter("core.slo_violations").Load(); got != 2 {
		t.Fatalf("slo_violations = %d, want 2", got)
	}
}

// TestFallbackResolution: exact hook match beats prefix patterns; the longest
// prefix wins; unmatched hooks get no fallback.
func TestFallbackResolution(t *testing.T) {
	k := NewKernel(Config{})
	mk := func(v int64) Fallback {
		return FallbackFunc{Label: "fb", Fn: func(string, int64, int64, int64) (int64, []int64) { return v, nil }}
	}
	k.RegisterFallback("mm/*", mk(1))
	k.RegisterFallback("mm/swap_*", mk(2))
	k.RegisterFallback("mm/swap_readahead", mk(3))
	for hook, want := range map[string]int64{
		"mm/swap_readahead": 3, // exact
		"mm/swap_cluster":   2, // longest prefix
		"mm/lookup":         1, // shorter prefix
	} {
		fb := resolveFallback(k.fallbacks, hook)
		if fb == nil {
			t.Fatalf("%s: no fallback", hook)
		}
		if v, _ := fb.Decide(hook, 0, 0, 0); v != want {
			t.Errorf("%s → %d, want %d", hook, v, want)
		}
	}
	if resolveFallback(k.fallbacks, "sched/can_migrate") != nil {
		t.Error("unmatched hook resolved a fallback")
	}
}

// TestFallbackRespectsRateLimit: baseline emissions stay inside the same
// rate-limit envelope as the program they replace.
func TestFallbackRespectsRateLimit(t *testing.T) {
	k := NewKernel(Config{RateLimit: 2})
	tb := table.New("t", "mm/test", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	pid := install(t, k, &isa.Program{Name: "ok", Insns: isa.MustAssemble("movimm r0, 1\nexit")})
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	sup := k.Supervise(SupervisorConfig{JitterFrac: 0})
	sup.Trip(pid)
	k.RegisterFallback("mm/*", FallbackFunc{Label: "chatty", Fn: func(string, int64, int64, int64) (int64, []int64) {
		return 0, []int64{1, 2, 3, 4, 5}
	}})
	res := k.Fire("mm/test", 1, 0, 0)
	if !res.FellBack || len(res.Emissions) != 2 || res.RateLimited == 0 {
		t.Fatalf("rate-limited fallback: %+v", res)
	}
}

// TestHelperPanicBecomesTrap: a panicking helper traps the invocation instead
// of killing the process, and the sentinel is errors.Is-able.
func TestHelperPanicBecomesTrap(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterHelper(HelperUserBase, verifier.HelperSpec{Name: "bomb", Cost: 1},
		func(_ *Kernel, _ *Invocation, _ *[5]int64) (int64, error) {
			panic("helper bug")
		}); err != nil {
		t.Fatal(err)
	}
	tb := table.New("t", "hook/p", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	pid := install(t, k, &isa.Program{
		Name:    "panicky",
		Insns:   isa.MustAssemble("call 100\nexit"),
		Helpers: []int64{HelperUserBase},
	})
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	res := k.Fire("hook/p", 1, 0, 0)
	if !res.Trapped || !errors.Is(res.TrapErr, ErrHelperPanic) {
		t.Fatalf("panicking helper: %+v (err %v)", res, res.TrapErr)
	}
	if got := k.Metrics.Counter("core.helper_panics").Load(); got != 1 {
		t.Fatalf("helper_panics = %d, want 1", got)
	}
	// The kernel is still alive.
	if res := k.Fire("hook/p", 2, 0, 0); res.Matched != 0 {
		t.Fatalf("post-panic fire: %+v", res)
	}
}

// TestRunProgramByNameQuarantined: direct invocation refuses quarantined
// programs with ErrQuarantined; Reinstate lifts the quarantine.
func TestRunProgramByNameQuarantined(t *testing.T) {
	k, pid := supRig(t)
	sup := k.Supervise(SupervisorConfig{JitterFrac: 0})
	sup.Trip(pid)
	if _, _, err := k.RunProgramByName("ok", 0, 0, 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
	sup.Reinstate(pid)
	if v, _, err := k.RunProgramByName("ok", 0, 0, 0); err != nil || v != 42 {
		t.Fatalf("reinstated run: v=%d err=%v", v, err)
	}
	if sup.State(pid) != BreakerClosed {
		t.Fatal("reinstate did not close the breaker")
	}
}

// TestInjectedHelperError: KindHelperError makes the next helper call fail
// with an errors.Is-able sentinel; the program traps soft.
func TestInjectedHelperError(t *testing.T) {
	k := NewKernel(Config{})
	if err := k.RegisterHelper(HelperUserBase, verifier.HelperSpec{Name: "fine", Cost: 1},
		func(_ *Kernel, _ *Invocation, _ *[5]int64) (int64, error) { return 9, nil }); err != nil {
		t.Fatal(err)
	}
	tb := table.New("t", "hook/h", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	pid := install(t, k, &isa.Program{
		Name:    "caller",
		Insns:   isa.MustAssemble("call 100\nexit"),
		Helpers: []int64{HelperUserBase},
	})
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "hook/h", Kind: fault.KindHelperError, Start: 1, Count: 1,
	}))
	if res := k.Fire("hook/h", 1, 0, 0); res.Trapped || res.Verdict != 9 {
		t.Fatalf("clean fire: %+v", res)
	}
	res := k.Fire("hook/h", 1, 0, 0)
	if !res.Trapped || !errors.Is(res.TrapErr, fault.ErrInjectedHelper) {
		t.Fatalf("injected helper error: %+v (err %v)", res, res.TrapErr)
	}
	if res := k.Fire("hook/h", 1, 0, 0); res.Trapped || res.Verdict != 9 {
		t.Fatalf("post-fault fire: %+v", res)
	}
}

// TestCorruptVerdictIsSilent: KindCorruptVerdict rewrites the verdict without
// any breaker-visible error — the fault class only accuracy monitoring
// catches.
func TestCorruptVerdictIsSilent(t *testing.T) {
	k, pid := supRig(t)
	sup := k.Supervise(SupervisorConfig{TripConsecutive: 1, JitterFrac: 0})
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "mm/test", Kind: fault.KindCorruptVerdict, Count: 5,
	}))
	for i := 0; i < 5; i++ {
		res := k.Fire("mm/test", 1, 0, 0)
		if res.Trapped || res.Verdict == 42 {
			t.Fatalf("fire %d: corruption missing or trapped: %+v", i, res)
		}
	}
	if sup.State(pid) != BreakerClosed {
		t.Fatal("silent corruption must not trip the breaker")
	}
	if got := k.Metrics.Counter("core.corrupted_verdicts").Load(); got != 5 {
		t.Fatalf("corrupted_verdicts = %d, want 5", got)
	}
}
