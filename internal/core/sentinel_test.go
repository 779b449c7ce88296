package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rmtk/internal/aot"
	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/vm"
)

// sentRig wires one program onto hook "eng/test" of a kernel built from kcfg
// with an attached sentinel. The verdict cache is disabled so fire indices
// line up with the sampler clock exactly.
func sentRig(t *testing.T, kcfg Config, cfg SentinelConfig, src string) (*Kernel, *Sentinel, int64) {
	t.Helper()
	kcfg.DisableVerdictCache = true
	k := NewKernel(kcfg)
	tb := table.New("t", "eng/test", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	pid := install(t, k, &isa.Program{Name: "sent", Insns: isa.MustAssemble(src)})
	for key := int64(0); key < 16; key++ {
		if err := tb.Insert(&table.Entry{Key: uint64(key), Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
			t.Fatal(err)
		}
	}
	return k, k.AttachSentinel(cfg), pid
}

func statusOf(t *testing.T, k *Kernel, name string) EngineProgramStatus {
	t.Helper()
	for _, st := range k.EngineStatus() {
		if st.Program == name {
			return st
		}
	}
	t.Fatalf("program %q not in engine status", name)
	return EngineProgramStatus{}
}

// TestEnginePanicContained: an injected engine panic inside the recover scope
// must surface as a trap, never crash the process, and charge the ladder.
func TestEnginePanicContained(t *testing.T) {
	k, sen, _ := sentRig(t, Config{Mode: ModeJIT}, SentinelConfig{SampleEvery: 1 << 20, DemoteAfter: 3}, "movimm r0, 9\nexit")
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "eng/test", Kind: fault.KindEnginePanic, Count: 1,
	}))
	res := k.Fire("eng/test", 1, 0, 0)
	if !res.Trapped || !errors.Is(res.TrapErr, ErrProgramPanic) {
		t.Fatalf("panic fire: %+v err=%v", res, res.TrapErr)
	}
	if c := sen.Counts(); c.Panics != 1 || c.Demotions != 0 {
		t.Fatalf("counts = %+v, want 1 contained panic and no demotion yet", c)
	}
	if st := statusOf(t, k, "sent"); st.Tier != TierJIT {
		t.Fatalf("tier = %s after one panic, want jit (DemoteAfter 3)", st.Tier)
	}
	if res := k.Fire("eng/test", 1, 0, 0); res.Trapped || res.Verdict != 9 {
		t.Fatalf("clean fire after contained panic: %+v", res)
	}
}

// TestPoisonedRunReportsNoSteps: an injected engine panic fires before the
// engine is entered, so the fire ran no step — on the bytecode tiers too,
// whose pooled machine state still holds the previous run's count.
func TestPoisonedRunReportsNoSteps(t *testing.T) {
	long := "movimm r0, 0\n" + strings.Repeat("addimm r0, 1\n", 40) + "exit"
	for _, mode := range []ExecMode{ModeJIT, ModeInterp} {
		k, _, _ := sentRig(t, Config{Mode: mode}, SentinelConfig{SampleEvery: 1 << 20, DemoteAfter: 3}, long)
		if res := k.Fire("eng/test", 1, 0, 0); res.Trapped || res.Steps < 40 {
			t.Fatalf("%v: clean fire of a 42-instruction program: %+v", mode, res)
		}
		k.SetFaultInjector(fault.NewInjector(1, fault.Rule{Target: "eng/test", Kind: fault.KindEnginePanic, Count: 1}))
		if res := k.Fire("eng/test", 1, 0, 0); !res.Trapped || res.Steps != 0 {
			t.Fatalf("%v: poisoned fire = %+v, want a trap that ran 0 steps", mode, res)
		}
	}
}

// TestSentinelPanicLadder walks the full ladder on a deterministic panic
// storm: JIT →(3 consecutive panics)→ interp →(3 more)→ baseline fallback,
// then — storm over — half-open probes re-promote interp and JIT in turn.
// SampleEvery=1 checks every JIT fire, so the storm's JIT-tier panics are
// answered with the checked interpreter's verdict (no trap reaches the
// caller); interp-tier panics have no checked reference below them and trap.
func TestSentinelPanicLadder(t *testing.T) {
	q := QuarantineConfig{CooldownFires: 4, MaxCooldownFires: 16, ProbeSuccesses: 2}
	cfg := SentinelConfig{SampleEvery: 1, DemoteAfter: 3, Seed: 7}
	k, sen, _ := sentRig(t, Config{Mode: ModeJIT, Quarantine: q}, cfg, "mov r0, r1\naddimm r0, 100\nexit")
	k.RegisterFallback("eng/test", FallbackFunc{Label: "base", Fn: func(hook string, key, arg2, arg3 int64) (int64, []int64) {
		return -100, nil
	}})
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "eng/test", Kind: fault.KindEnginePanic, Count: 8,
	}))

	type want struct {
		verdict  int64
		trapped  bool
		fellBack bool
	}
	const key, good = 5, 105
	wants := []want{
		// Fires 0-2: JIT panics, every fire sampled → checked verdict wins.
		{good, false, false}, {good, false, false}, {good, false, false},
		// Fires 3-5: demoted to interp, poison still strikes, traps surface.
		{DefaultVerdict, true, false}, {DefaultVerdict, true, false}, {DefaultVerdict, true, false},
		// Fires 6-8: baseline — the registered fallback answers.
		{-100, false, true}, {-100, false, true}, {-100, false, true},
		// Fire 9: cooldown expired → interp probe, storm over, succeeds.
		{good, false, false},
		// Fire 10: second probe success → promoted back to interp.
		{good, false, false},
	}
	for i, w := range wants {
		res := k.Fire("eng/test", key, 0, 0)
		if res.Verdict != w.verdict || res.Trapped != w.trapped || res.FellBack != w.fellBack {
			t.Fatalf("fire %d: got (v=%d trapped=%v fellback=%v), want %+v",
				i, res.Verdict, res.Trapped, res.FellBack, w)
		}
	}
	// Fires 11-15 ride the interp cooldown into two JIT probes; by 16 the
	// program is fully re-promoted.
	for i := 11; i <= 20; i++ {
		if res := k.Fire("eng/test", key, 0, 0); res.Verdict != good || res.Trapped || res.FellBack {
			t.Fatalf("recovery fire %d: %+v", i, res)
		}
	}

	st := statusOf(t, k, "sent")
	if st.Tier != TierJIT || st.Demotions != 2 {
		t.Fatalf("status = tier %s demotions %d, want recovered jit after 2 demotions", st.Tier, st.Demotions)
	}
	c := sen.Counts()
	if c.Panics != 6 || c.Demotions != 2 || c.Promotions != 2 || c.BaselineFires != 3 {
		t.Fatalf("counts = %+v", c)
	}
	incs := sen.Incidents()
	if len(incs) != 2 || incs[0].Cause != CausePanic || incs[1].Cause != CausePanic {
		t.Fatalf("incidents = %v", incs)
	}
	if incs[0].From != TierJIT || incs[0].To != TierInterp || incs[1].From != TierInterp || incs[1].To != TierBaseline {
		t.Fatalf("incident tiers = %v", incs)
	}
	if q := k.EngineQuarantines(); len(q) != 0 {
		t.Fatalf("quarantines after full recovery = %v", q)
	}
}

// TestSentinelQuarantineNoFallback: an exhausted ladder with no registered
// baseline yields the default verdict — degraded, never corrupted.
func TestSentinelQuarantineNoFallback(t *testing.T) {
	cfg := SentinelConfig{SampleEvery: 1 << 20, DemoteAfter: 1}
	k, _, _ := sentRig(t, Config{Mode: ModeJIT, Quarantine: QuarantineConfig{CooldownFires: 1 << 20}}, cfg, "movimm r0, 4\nexit")
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "eng/test", Kind: fault.KindEnginePanic,
	}))
	k.Fire("eng/test", 1, 0, 0) // jit → interp
	k.Fire("eng/test", 1, 0, 0) // interp → baseline
	res := k.Fire("eng/test", 1, 0, 0)
	if res.Verdict != DefaultVerdict || res.FellBack || res.Trapped {
		t.Fatalf("quarantined fire without fallback: %+v", res)
	}
	if st := statusOf(t, k, "sent"); st.Tier != TierBaseline {
		t.Fatalf("tier = %s, want baseline", st.Tier)
	}
}

// TestSentinelMiscompileCaught is the differential checker end to end with a
// real (deliberately wrong) native function in the AOT registry: wrong
// verdict, wrong context write. The sampled check must discard the native
// run's verdict AND its buffered side effects, answer with the checked
// interpreter's result, demote AOT→JIT, and keep failing re-promotion probes
// safely while the bad function remains registered.
func TestSentinelMiscompileCaught(t *testing.T) {
	src := "mov r0, r1\naddimm r0, 77777\nstctxt r1, 0, r0\nexit"
	// Learn the admission-time content hash from a throwaway kernel, then
	// bind the evil function before the kernel under test installs it.
	scratch := NewKernel(Config{})
	install(t, scratch, &isa.Program{Name: "sent", Insns: isa.MustAssemble(src)})
	hash := statusOf(t, scratch, "sent").Hash
	aot.Register(hash, "sentinel_evil_aot", func(env vm.Env, m *aot.Scratch, r1, r2, r3 int64) (int64, int64, error) {
		env.CtxStore(r1, 0, r1+66666) // corrupted side effect
		return r1 + 66666, 4, nil     // corrupted verdict, plausible step count
	})

	q := QuarantineConfig{CooldownFires: 2, MaxCooldownFires: 8, ProbeSuccesses: 1}
	cfg := SentinelConfig{SampleEvery: 1, DemoteAfter: 3, Seed: 3}
	k, sen, _ := sentRig(t, Config{Mode: ModeAOT, Quarantine: q}, cfg, src)
	if st := statusOf(t, k, "sent"); st.MaxTier != TierAOT {
		t.Fatalf("max tier = %s, want aot registry hit", st.MaxTier)
	}

	const key, good = 7, 7 + 77777
	res := k.Fire("eng/test", key, 0, 0)
	if res.Verdict != good || res.Trapped {
		t.Fatalf("first (miscompiled, sampled) fire: %+v, want checked verdict %d", res, good)
	}
	if got := k.Ctx().Load(key, 0); got != good {
		t.Fatalf("ctx[%d][0] = %d, want %d (corrupted native write must be discarded)", key, got, good)
	}
	st := statusOf(t, k, "sent")
	if st.Tier != TierJIT || st.Demotions != 1 {
		t.Fatalf("status after divergence = tier %s demotions %d, want jit/1", st.Tier, st.Demotions)
	}
	incs := sen.Incidents()
	if len(incs) != 1 || incs[0].Cause != CauseDivergence || incs[0].From != TierAOT || incs[0].To != TierJIT {
		t.Fatalf("incidents = %v", incs)
	}

	// JIT fires agree with the checked reference; the cooldown expires into
	// an AOT probe which — always checked — diverges again and backs off
	// without re-promoting.
	for i := 0; i < 8; i++ {
		if res := k.Fire("eng/test", key, 0, 0); res.Verdict != good || res.Trapped {
			t.Fatalf("post-demotion fire %d: %+v", i, res)
		}
	}
	c := sen.Counts()
	if c.ProbeFailures == 0 {
		t.Fatalf("counts = %+v, want at least one failed AOT probe", c)
	}
	if st := statusOf(t, k, "sent"); st.Tier != TierJIT {
		t.Fatalf("tier = %s after failed probes, want jit", st.Tier)
	}
	if c.CheckedVerdicts == 0 || c.Divergences < 2 {
		t.Fatalf("counts = %+v, want checked-verdict substitutions on the sampled fire and the probe", c)
	}
}

// TestSentinelForcedDivergence: the sampler-forced divergence fault demotes
// JIT→interp at the first sampled fire and stays demoted — there is no
// checked tier below JIT to probe against, so probes keep failing.
func TestSentinelForcedDivergence(t *testing.T) {
	cfg := SentinelConfig{SampleEvery: 4, Seed: 11}
	k, sen, _ := sentRig(t, Config{Mode: ModeJIT, Quarantine: QuarantineConfig{CooldownFires: 4, ProbeSuccesses: 2}}, cfg, "mov r0, r2\nexit")
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "eng/test", Kind: fault.KindForceDivergence,
	}))
	hash := statusOf(t, k, "sent").Hash
	first := sen.FirstSampled(hash)
	if first < 0 || first >= 4 {
		t.Fatalf("FirstSampled = %d, want within one sampling period", first)
	}
	for i := int64(0); i < 32; i++ {
		res := k.Fire("eng/test", 2, 40+i, 0)
		if res.Trapped || res.FellBack {
			t.Fatalf("fire %d: %+v (forced divergence must stay contained)", i, res)
		}
		if res.Verdict != 40+i {
			t.Fatalf("fire %d: verdict %d, want %d (checked verdict)", i, res.Verdict, 40+i)
		}
		if st := statusOf(t, k, "sent"); i < first && st.Tier != TierJIT {
			t.Fatalf("fire %d: demoted before the first sampled fire (%d)", i, first)
		}
	}
	st := statusOf(t, k, "sent")
	if st.Tier != TierInterp || st.Demotions != 1 {
		t.Fatalf("status = tier %s demotions %d, want interp/1", st.Tier, st.Demotions)
	}
	if len(st.History) == 0 || st.History[0].Cause != CauseDivergence || st.History[0].Fire != first+1 {
		t.Fatalf("history = %v, want first demotion right after sampled fire %d", st.History, first)
	}
	if c := sen.Counts(); c.Divergences == 0 || c.ProbeFailures == 0 {
		t.Fatalf("counts = %+v, want divergence plus failed re-promotion probes", c)
	}
}

// TestSamplerDeterminism: the sampled set is a pure function of (seed, hash,
// fire index) — two kernels with the same seed check the same fires, a
// different seed shifts the phase but not the density, and the first sampled
// index always lands within one sampling period.
func TestSamplerDeterminism(t *testing.T) {
	const every, fires = 8, 64
	runCount := func(seed int64) (int64, int64) {
		cfg := SentinelConfig{SampleEvery: every, Seed: seed}
		k, sen, _ := sentRig(t, Config{Mode: ModeJIT}, cfg, "movimm r0, 1\nexit")
		hash := statusOf(t, k, "sent").Hash
		for i := 0; i < fires; i++ {
			k.Fire("eng/test", int64(i%16), 0, 0)
		}
		return sen.Counts().Sampled, sen.FirstSampled(hash)
	}
	s1a, f1a := runCount(42)
	s1b, f1b := runCount(42)
	if s1a != s1b || f1a != f1b {
		t.Fatalf("same seed diverged: sampled %d vs %d, first %d vs %d", s1a, s1b, f1a, f1b)
	}
	if f1a < 0 || f1a >= every {
		t.Fatalf("first sampled = %d, want in [0,%d)", f1a, every)
	}
	if s1a != fires/every {
		t.Fatalf("sampled %d of %d fires, want exactly 1-in-%d = %d", s1a, fires, every, fires/every)
	}
}

// TestReswapCannotResurrectQuarantine: health is keyed by content hash, so a
// remove + reinstall of byte-identical content re-resolves to the same
// (demoted) record when the snapshot republishes — the reswap runs at the
// quarantined tier, not the configured one.
func TestReswapCannotResurrectQuarantine(t *testing.T) {
	cfg := SentinelConfig{SampleEvery: 1 << 20, DemoteAfter: 2}
	k, sen, pid := sentRig(t, Config{Mode: ModeJIT, Quarantine: QuarantineConfig{CooldownFires: 1 << 20}}, cfg, "movimm r0, 6\nexit")
	k.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "eng/test", Kind: fault.KindEnginePanic, Count: 2,
	}))
	k.Fire("eng/test", 1, 0, 0)
	k.Fire("eng/test", 1, 0, 0)
	st := statusOf(t, k, "sent")
	if st.Tier != TierInterp {
		t.Fatalf("tier = %s, want interp quarantine", st.Tier)
	}

	if err := k.RemoveProgram(pid); err != nil {
		t.Fatal(err)
	}
	pid2 := install(t, k, &isa.Program{Name: "sent", Insns: isa.MustAssemble("movimm r0, 6\nexit")})
	if pid2 == pid {
		t.Fatalf("reinstall reused id %d", pid)
	}
	st2 := statusOf(t, k, "sent")
	if st2.Hash != st.Hash {
		t.Fatalf("identical content rehashed: %s vs %s", st2.Hash, st.Hash)
	}
	if st2.Tier != TierInterp {
		t.Fatalf("reswapped tier = %s, want interp (quarantine must survive reswap)", st2.Tier)
	}
	if c := sen.Counts(); c.Demotions != 1 {
		t.Fatalf("counts = %+v, want the single original demotion", c)
	}

	// Genuinely different content starts healthy.
	pid3 := install(t, k, &isa.Program{Name: "sent2", Insns: isa.MustAssemble("movimm r0, 61\nexit")})
	_ = pid3
	if st3 := statusOf(t, k, "sent2"); st3.Tier != TierJIT {
		t.Fatalf("fresh content tier = %s, want jit", st3.Tier)
	}
}

// TestSentinelConcurrentStress hammers one sentineled program from 8
// goroutines under interleaved engine panics and forced divergences while
// the main goroutine keeps swapping route snapshots (install/remove of
// unrelated programs), so demotion, probing, re-promotion and snapshot
// rebuild all race. Run under -race. Invariants: no panic escapes, and every
// fire that neither trapped nor fell back returns the program's true verdict
// (checked substitution included).
func TestSentinelConcurrentStress(t *testing.T) {
	q := QuarantineConfig{CooldownFires: 8, MaxCooldownFires: 64, ProbeSuccesses: 2}
	cfg := SentinelConfig{SampleEvery: 4, DemoteAfter: 2, Seed: 5}
	k, sen, _ := sentRig(t, Config{Mode: ModeJIT, Quarantine: q}, cfg, "mov r0, r1\nmulimm r0, 3\naddimm r0, 11\nexit")
	k.RegisterFallback("eng/test", FallbackFunc{Label: "base", Fn: func(hook string, key, arg2, arg3 int64) (int64, []int64) {
		return -7777, nil
	}})
	k.SetFaultInjector(fault.NewInjector(9,
		fault.Rule{Target: "eng/test", Kind: fault.KindEnginePanic, Every: 7},
		fault.Rule{Target: "eng/test", Kind: fault.KindForceDivergence, Every: 13},
	))

	const (
		workers = 8
		perG    = 1500
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := int64((w*2 + i) % 16)
				res := k.Fire("eng/test", key, 0, 0)
				if res.FellBack && res.Verdict != -7777 {
					errs <- fmt.Errorf("worker %d fire %d: fallback verdict %d", w, i, res.Verdict)
					return
				}
				if res.Trapped || res.FellBack {
					continue // contained degradation
				}
				if want := 3*key + 11; res.Verdict != want {
					errs <- fmt.Errorf("worker %d fire %d: verdict %d, want %d", w, i, res.Verdict, want)
					return
				}
			}
		}(w)
	}
	// Mid-flight snapshot swaps: every install/remove republishes the route
	// snapshot and re-resolves health records while fires are in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			id, _, err := k.InstallProgram(&isa.Program{
				Name:  fmt.Sprintf("churn%d", i),
				Insns: isa.MustAssemble("movimm r0, 1\nexit"),
			})
			if err != nil {
				errs <- err
				return
			}
			if err := k.RemoveProgram(id); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c := sen.Counts()
	if c.Panics == 0 || c.Divergences == 0 || c.Demotions == 0 {
		t.Fatalf("stress counts = %+v, want panics, divergences and demotions to have occurred", c)
	}
	// The ladder is still internally consistent: the program's tier is a
	// valid rung and its history transitions are contiguous — a row that
	// moves the tier starts where the previous row left it, and a failed
	// probe leaves it there.
	st := statusOf(t, k, "sent")
	if st.Tier < TierBaseline || st.Tier > TierJIT {
		t.Fatalf("final tier = %v", st.Tier)
	}
	if len(st.History) == 0 {
		t.Fatal("no history after demotions")
	}
	for i := 1; i < len(st.History); i++ {
		prev, ev := st.History[i-1], st.History[i]
		if ev.Cause == CauseProbeFailed && ev.To != prev.To || ev.Cause != CauseProbeFailed && ev.From != prev.To {
			t.Fatalf("history row %d %v does not follow row %d %v", i, ev, i-1, prev)
		}
	}
	if last := st.History[len(st.History)-1]; last.To != st.Tier {
		t.Fatalf("history ends at %s, tier is %s", last.To, st.Tier)
	}
}

// TestRestoredQuarantineEndsOnRePromotion: a quarantine restored before the
// sentinel attached lasts until the live record probes its way back to the
// capability ceiling — from then on EngineQuarantines, and so the next
// checkpoint, must not report it, nor may a detach or a re-attach revive it;
// a quarantine still held does survive them.
func TestRestoredQuarantineEndsOnRePromotion(t *testing.T) {
	q := QuarantineConfig{CooldownFires: 2, ProbeSuccesses: 2}
	k, _, _ := sentRig(t, Config{Mode: ModeJIT, Quarantine: q}, SentinelConfig{SampleEvery: 1 << 20}, "movimm r0, 3\nexit")
	hash := statusOf(t, k, "sent").Hash
	k.DetachSentinel()
	k.RestoreEngineQuarantine(hash, TierInterp)
	k.AttachSentinel(SentinelConfig{SampleEvery: 1 << 20})
	if got := k.EngineQuarantines(); len(got) != 1 || got[0] != (EngineQuarantine{Hash: hash, Tier: TierInterp}) {
		t.Fatalf("restored quarantines = %v", got)
	}
	// One fire waits out the cooldown, two probe jit and re-promote it.
	for i := 0; i < 3; i++ {
		if res := k.Fire("eng/test", 1, 0, 0); res.Trapped || res.Verdict != 3 {
			t.Fatalf("fire %d: %+v", i, res)
		}
	}
	if st := statusOf(t, k, "sent"); st.Tier != TierJIT || st.Tier != st.MaxTier {
		t.Fatalf("tier %s (max %s) after the probes, want jit", st.Tier, st.MaxTier)
	}
	if got := k.EngineQuarantines(); len(got) != 0 {
		t.Fatalf("quarantines after re-promotion = %v, want none", got)
	}
	// Detaching must not bring the stashed restore back, and neither must
	// attaching a fresh sentinel.
	k.DetachSentinel()
	if got := k.EngineQuarantines(); len(got) != 0 {
		t.Fatalf("quarantines after detach = %v, want none", got)
	}
	k.AttachSentinel(SentinelConfig{SampleEvery: 1 << 20})
	if st := statusOf(t, k, "sent"); st.Tier != TierJIT {
		t.Fatalf("tier %s after re-attach, want jit", st.Tier)
	}
	// A quarantine the live record still holds does outlast the swap.
	k.RestoreEngineQuarantine(hash, TierInterp)
	k.DetachSentinel()
	if got := k.EngineQuarantines(); len(got) != 1 || got[0] != (EngineQuarantine{Hash: hash, Tier: TierInterp}) {
		t.Fatalf("quarantines after a live demotion and detach = %v", got)
	}
	k.AttachSentinel(SentinelConfig{SampleEvery: 1 << 20})
	if st := statusOf(t, k, "sent"); st.Tier != TierInterp {
		t.Fatalf("tier %s after re-attach, want interp", st.Tier)
	}
}
