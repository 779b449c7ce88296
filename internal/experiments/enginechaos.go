package experiments

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/table"
)

// This file is the engine-chaos experiment: the fault-containment story of
// chaos.go lifted one layer down, from misbehaving programs to misbehaving
// *engines*. A ModeAOT kernel with an attached engine sentinel hosts three
// datapaths, each seeded with a different engine-level fault:
//
//   - panic lane: a JIT-run program whose engine panics for a bounded storm
//     of fires (fault.KindEnginePanic). The sentinel must contain every
//     panic, walk the program down the ladder JIT→interp→baseline, and —
//     once the storm passes — probe its way back up to JIT.
//   - miscompile lane: the hot-path fixture program, whose generated native
//     function is genuinely registered in the AOT registry, with a simulated
//     miscompile (fault.KindMiscompile) that silently corrupts the AOT
//     verdict starting exactly at the program's first sampled fire. The
//     differential checker must catch it on that very fire, answer the
//     caller with the checked verdict, and demote AOT→JIT where the
//     miscompile no longer applies. Re-promotion probes (always checked)
//     must keep failing safely while the fault persists.
//   - divergence lane: a JIT-run program with a persistent forced sampler
//     divergence (fault.KindForceDivergence) — a stand-in for a JIT bug the
//     checker can see but that never panics. Demotes JIT→interp within one
//     sampling period and stays there (probes fail, backoff grows).
//
// Every fire is audited against an uninjected fully-interpreted reference
// kernel: a fire is "degraded" when it trapped or fell back to baseline
// (containment working as designed) and "corrupted" when an untrapped,
// unfallen fire returned a verdict the reference disagrees with. The
// acceptance gate is Corrupted == 0 — the sentinel's sampled checking plus
// checked-verdict substitution means no wrong answer ever reaches a caller.
// Completion time is measured on the virtual step clock and gated against a
// clean all-JIT run of the same workload (chaos ≤ 1.05× clean).

// Engine-chaos hook names (program names are tenantless on purpose — the
// experiment runs in the default tenant).
const (
	HookEnginePanic = "enginechaos/panic"
	HookEngineDiv   = "enginechaos/diverge"

	engineChaosKeys = 8
)

// engineChaosSentinelConfig is the containment policy under test: default
// 1-in-64 sampling and three consecutive panics to demote.
// engineChaosQuarantine keeps the cooldowns short, so a bounded run observes
// the full probe → re-promotion cycle.
func engineChaosSentinelConfig(seed int64) core.SentinelConfig {
	return core.SentinelConfig{
		SampleEvery: 64,
		DemoteAfter: 3,
		History:     32,
		Seed:        seed,
	}
}

var engineChaosQuarantine = core.QuarantineConfig{
	CooldownFires:    64,
	MaxCooldownFires: 1024,
	ProbeSuccesses:   3,
}

// EngineLane is the per-datapath outcome of the chaos run.
type EngineLane struct {
	Program   string
	Hook      string
	MaxTier   core.EngineTier // capability ceiling (aot for the registry-hit lane)
	FinalTier core.EngineTier
	// FirstDemoteFire is the sampler-clock index of the first demotion; the
	// detection bound demands it within one sampling period of fault onset.
	FirstDemoteFire int64
	Demotions       int64
	Promotions      int64 // ladder re-promotions observed in the history
	Fires           int64 // hook firings driven through the lane
	Degraded        int64 // trapped or baseline-fallback fires (contained)
	Corrupted       int64 // untrapped fires whose verdict disagrees with the reference
}

// EngineChaosResult aggregates the engine-chaos experiment.
type EngineChaosResult struct {
	Lanes []EngineLane

	Counts core.SentinelCounts

	// Virtual completion time in step units: per-fire dispatch cost plus
	// executed VM steps plus the sentinel's checked-reference steps.
	CleanJCT float64 // same workload, all-JIT, no faults, no sentinel
	ChaosJCT float64

	Incidents   int64 // incidents emitted (demotions + diverging probes)
	DetectBound int64 // the sampling period: the advertised detection bound
	FiresPerLn  int64
}

// JCTRatio is chaos-over-clean on the virtual step clock.
func (r EngineChaosResult) JCTRatio() float64 {
	if r.CleanJCT <= 0 {
		return 0
	}
	return r.ChaosJCT / r.CleanJCT
}

func (r EngineChaosResult) String() string {
	s := fmt.Sprintf(
		"enginechaos: clean=%.0f chaos=%.0f step-units (%.3fx, gate ≤1.05x) incidents=%d fires/lane=%d\n"+
			"             sentinel: sampled=%d divergences=%d panics=%d demotions=%d promotions=%d probe-fails=%d baseline-fires=%d checked-verdicts=%d",
		r.CleanJCT, r.ChaosJCT, r.JCTRatio(), r.Incidents, r.FiresPerLn,
		r.Counts.Sampled, r.Counts.Divergences, r.Counts.Panics,
		r.Counts.Demotions, r.Counts.Promotions, r.Counts.ProbeFailures,
		r.Counts.BaselineFires, r.Counts.CheckedVerdicts)
	for _, l := range r.Lanes {
		s += fmt.Sprintf("\n  %-18s max=%-7s final=%-8s first-demote@%-4d demotions=%d promotions=%d degraded=%d corrupted=%d",
			l.Program, l.MaxTier, l.FinalTier, l.FirstDemoteFire, l.Demotions, l.Promotions, l.Degraded, l.Corrupted)
	}
	return s
}

// Check enforces the acceptance gates: every faulty lane demoted within one
// sampling period of fault onset, zero corrupted verdicts reached a caller,
// no fire escaped containment, and the chaos run cost at most 1.05× the
// clean all-JIT run on the virtual step clock.
func (r EngineChaosResult) Check() error {
	for _, l := range r.Lanes {
		if l.Demotions == 0 {
			return fmt.Errorf("enginechaos: lane %s never demoted", l.Program)
		}
		if l.FirstDemoteFire > r.DetectBound {
			return fmt.Errorf("enginechaos: lane %s first demotion at fire %d, bound %d",
				l.Program, l.FirstDemoteFire, r.DetectBound)
		}
		if l.Corrupted != 0 {
			return fmt.Errorf("enginechaos: lane %s delivered %d corrupted verdicts", l.Program, l.Corrupted)
		}
	}
	if ratio := r.JCTRatio(); ratio > 1.05 {
		return fmt.Errorf("enginechaos: chaos JCT %.3fx clean exceeds the 1.05x gate", ratio)
	}
	if r.Counts.Divergences == 0 {
		return fmt.Errorf("enginechaos: differential checker caught no divergence")
	}
	if r.Counts.Promotions < 2 {
		return fmt.Errorf("enginechaos: ladder re-promoted %d times after the storm, want ≥2 (baseline→interp→jit)",
			r.Counts.Promotions)
	}
	return nil
}

// buildEngineChaosKernel assembles the three-lane kernel. The hot-path
// fixture installs first so its matrix id — encoded in the program bytes and
// covered by the AOT registry hash — matches the generated native function.
func buildEngineChaosKernel(mode core.ExecMode) (*core.Kernel, error) {
	k := core.NewKernel(core.Config{Mode: mode, DisableVerdictCache: true, Quarantine: engineChaosQuarantine})
	if err := InstallHotPath(k); err != nil {
		return nil, err
	}

	lanes := []struct {
		name, hook, src string
	}{
		{"enginechaos_panic", HookEnginePanic, `
        mov    r0, r1
        addimm r0, 42
        exit`},
		{"enginechaos_div", HookEngineDiv, `
        mov    r0, r1
        mulimm r0, 5
        add    r0, r2
        addimm r0, 9
        exit`},
	}
	for _, ln := range lanes {
		progID, _, err := k.InstallProgram(&isa.Program{
			Name: ln.name, Hook: ln.hook, Insns: isa.MustAssemble(ln.src),
		})
		if err != nil {
			return nil, err
		}
		t := table.New(ln.name+"_tab", ln.hook, table.MatchExact)
		if _, err := k.CreateTable(t); err != nil {
			return nil, err
		}
		for key := 0; key < engineChaosKeys; key++ {
			if err := t.Insert(&table.Entry{
				Key:    uint64(key),
				Action: table.Action{Kind: table.ActionProgram, ProgID: progID},
			}); err != nil {
				return nil, err
			}
		}
	}
	return k, nil
}

// laneTrace is one lane's per-fire outcome trace for the corruption audit.
type laneTrace struct {
	verdicts []int64
	degraded []bool
}

// engineChaosDispatchCost is the per-fire dispatch cost on the virtual step
// clock — table lookup plus action routing, charged identically to every
// kernel so the ratio isolates engine and checking overhead.
const engineChaosDispatchCost = 10

// fireEngineChaos drives n firings per lane, interleaved round-robin, and
// returns per-lane outcome traces plus the summed dispatch+step cost on the
// virtual clock.
func fireEngineChaos(k *core.Kernel, n int64) (map[string]*laneTrace, float64) {
	hooks := []string{HookEnginePanic, HotPathHook, HookEngineDiv}
	traces := make(map[string]*laneTrace, len(hooks))
	for _, h := range hooks {
		traces[h] = &laneTrace{
			verdicts: make([]int64, 0, n),
			degraded: make([]bool, 0, n),
		}
	}
	var units float64
	for i := int64(0); i < n; i++ {
		for _, h := range hooks {
			key := i % engineChaosKeys
			arg2 := i % 16
			if h == HotPathHook {
				key = i % HotPathKeys
				arg2 = key & 7
			}
			res := k.Fire(h, key, arg2, 3)
			tr := traces[h]
			tr.verdicts = append(tr.verdicts, res.Verdict)
			tr.degraded = append(tr.degraded, res.Trapped || res.FellBack)
			units += engineChaosDispatchCost + float64(res.Steps) + float64(res.DelayNs)
		}
	}
	return traces, units
}

// EngineChaos runs the engine-chaos experiment. short shrinks the firing
// count to a CI-smoke size that still covers the storm, a failed probe and a
// full re-promotion cycle.
func EngineChaos(seed int64, short bool) (EngineChaosResult, error) {
	n := int64(2048)
	if short {
		n = 640
	}
	// The panic storm is bounded so the ladder's recovery half is
	// observable: long enough to ride through the first (failing) probe,
	// short enough that the second probe runs clean.
	const panicStorm = 192

	var out EngineChaosResult
	out.FiresPerLn = n

	// Chaos kernel: AOT mode, sentinel attached, then the fault schedule.
	// The miscompile rule starts exactly at the program's first sampled
	// fire — the earliest a silent corruption can both exist and be caught,
	// so the checked-verdict substitution is exercised on every corrupted
	// execution (Corrupted must stay 0).
	kc, err := buildEngineChaosKernel(core.ModeAOT)
	if err != nil {
		return out, err
	}
	sen := kc.AttachSentinel(engineChaosSentinelConfig(seed))
	out.DetectBound = int64(sen.Config().SampleEvery)
	var mcHash string
	for _, st := range kc.EngineStatus() {
		if st.Program == "shardscale_pure" {
			if st.MaxTier != core.TierAOT {
				return out, fmt.Errorf("enginechaos: %s missed the AOT registry (max tier %s)", st.Program, st.MaxTier)
			}
			mcHash = st.Hash
		}
	}
	if mcHash == "" {
		return out, fmt.Errorf("enginechaos: hot-path program not installed")
	}
	firstSampled := sen.FirstSampled(mcHash)

	kc.RegisterFallback(HookEnginePanic, core.FallbackFunc{
		Label: "enginechaos-baseline",
		Fn:    func(hook string, key, arg2, arg3 int64) (int64, []int64) { return key + 42, nil },
	})
	inj := fault.NewInjector(seed,
		fault.Rule{Target: HookEnginePanic, Kind: fault.KindEnginePanic, Count: panicStorm},
		fault.Rule{Target: HotPathHook, Kind: fault.KindMiscompile, Start: firstSampled},
		fault.Rule{Target: HookEngineDiv, Kind: fault.KindForceDivergence},
	)
	kc.SetFaultInjector(inj)

	chaosTraces, chaosUnits := fireEngineChaos(kc, n)
	out.Counts = sen.Counts()
	out.ChaosJCT = chaosUnits + float64(out.Counts.CheckSteps)
	out.Incidents = int64(len(sen.Incidents()))

	// Clean all-JIT reference for the JCT gate.
	kj, err := buildEngineChaosKernel(core.ModeJIT)
	if err != nil {
		return out, err
	}
	_, cleanUnits := fireEngineChaos(kj, n)
	out.CleanJCT = cleanUnits

	// Fully-interpreted, uninjected reference for the corruption audit.
	ki, err := buildEngineChaosKernel(core.ModeInterp)
	if err != nil {
		return out, err
	}
	refTraces, _ := fireEngineChaos(ki, n)

	status := make(map[string]core.EngineProgramStatus)
	for _, st := range kc.EngineStatus() {
		status[st.Program] = st
	}
	for _, ln := range []struct{ prog, hook string }{
		{"enginechaos_panic", HookEnginePanic},
		{"shardscale_pure", HotPathHook},
		{"enginechaos_div", HookEngineDiv},
	} {
		st := status[ln.prog]
		lane := EngineLane{
			Program: ln.prog, Hook: ln.hook,
			MaxTier: st.MaxTier, FinalTier: st.Tier,
			Demotions: st.Demotions, Fires: n,
		}
		for _, ev := range st.History {
			switch ev.Cause {
			case core.CausePanic, core.CauseDivergence:
				if lane.FirstDemoteFire == 0 {
					lane.FirstDemoteFire = ev.Fire
				}
			case core.CausePromoted:
				lane.Promotions++
			}
		}
		chaos, ref := chaosTraces[ln.hook], refTraces[ln.hook]
		for i := range chaos.verdicts {
			switch {
			case chaos.degraded[i]:
				lane.Degraded++
			case chaos.verdicts[i] != ref.verdicts[i]:
				lane.Corrupted++
			}
		}
		out.Lanes = append(out.Lanes, lane)
	}
	return out, nil
}
