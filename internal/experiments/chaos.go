package experiments

import (
	"fmt"

	"rmtk/internal/core"
	"rmtk/internal/fault"
	"rmtk/internal/memsim"
	"rmtk/internal/prefetch"
)

// Chaos is the fault-containment experiment: the Table-1 video workload runs
// under a deterministic fault storm against the learned prefetch datapath —
// forced VM traps, helper errors, 250µs latency spikes charged to the virtual
// clock, and transient model-swap failures on the control-plane push path.
// Three runs are compared:
//
//   - baseline: stock Linux readahead, no faults — the floor the containment
//     story must hold ("never worse than the heuristic it replaced").
//   - contained: the RMT policy with the kernel supervisor attached; breakers
//     trip, the mm/* hooks degrade to the registered readahead fallback, and
//     half-open probes re-admit the program once the storm passes.
//   - uncontained: the same faults with no supervisor — every trapped fire
//     loses its prefetch and every spike stalls the fault path.
//
// The storm occupies the middle half of the trace; the final quarter is clean
// so probe → recovery is observable in the counters.
type ChaosResult struct {
	BaselineJCT    float64 // seconds, readahead without faults
	ContainedJCT   float64 // seconds, supervised RMT under the storm
	UncontainedJCT float64 // seconds, unsupervised RMT under the storm

	// Supervisor counters from the contained run.
	Trips      int64
	Fallbacks  int64
	Probes     int64
	Recoveries int64
	Reopens    int64

	// Injected-fault counts from the contained run's injector.
	InjectedTraps      int64
	InjectedHelperErrs int64
	InjectedSwapFaults int64
	SwapFaultsRetried  int64 // model-swap faults absorbed by push retries
}

func (r ChaosResult) String() string {
	return fmt.Sprintf(
		"chaos: baseline=%.2fs contained=%.2fs (%.1f%% of baseline) uncontained=%.2fs (%.1f%% of baseline)\n"+
			"       trips=%d fallbacks=%d probes=%d recoveries=%d reopens=%d\n"+
			"       injected: traps=%d helper-errs=%d swap-faults=%d (retried=%d)",
		r.BaselineJCT, r.ContainedJCT, 100*r.ContainedJCT/r.BaselineJCT,
		r.UncontainedJCT, 100*r.UncontainedJCT/r.BaselineJCT,
		r.Trips, r.Fallbacks, r.Probes, r.Recoveries, r.Reopens,
		r.InjectedTraps, r.InjectedHelperErrs, r.InjectedSwapFaults, r.SwapFaultsRetried)
}

// chaosRules builds the deterministic fault schedule for a trace of n
// accesses: the storm spans [n/4, 3n/4) of the prefetch hook's firings —
// first half forced VM traps, second half helper errors — with a 250µs
// latency spike every 4th firing throughout, plus two transient model-swap
// failures on the control-plane path.
func chaosRules(n int64) []fault.Rule {
	start := n / 4
	window := n / 2
	half := window / 2
	return []fault.Rule{
		{Target: memsim.HookSwapClusterReadahead, Kind: fault.KindVMTrap,
			Start: start, Count: half},
		{Target: memsim.HookSwapClusterReadahead, Kind: fault.KindHelperError,
			Start: start + half, Count: window - half},
		{Target: memsim.HookSwapClusterReadahead, Kind: fault.KindLatencySpike,
			Start: start, Every: 4, Count: window / 4, LatencyNs: 250_000},
		{Target: fault.TargetModelSwap, Kind: fault.KindModelSwapFail, Count: 2},
	}
}

// chaosSupervisorConfig is the containment policy under test: what trips a
// breaker. chaosQuarantine is how a tripped one climbs back.
func chaosSupervisorConfig(seed int64) core.SupervisorConfig {
	return core.SupervisorConfig{
		TripConsecutive: 3,
		WindowK:         8,
		WindowM:         32,
		LatencySLONs:    100_000, // a 250µs spike is an SLO violation
		JitterFrac:      0.1,
		Seed:            seed,
	}
}

var chaosQuarantine = core.QuarantineConfig{
	CooldownFires:    128,
	MaxCooldownFires: 2048,
	ProbeSuccesses:   8,
}

// Chaos runs the fault-containment experiment.
func Chaos(seed int64, mode core.ExecMode) (ChaosResult, error) {
	trace := VideoTrace(seed)
	cfg := VideoMemConfig()
	rules := chaosRules(int64(len(trace)))
	var out ChaosResult

	// Baseline: stock readahead, no faults.
	base := memsim.Run(cfg, prefetch.NewReadahead(), trace)
	out.BaselineJCT = base.CompletionSeconds()

	// Contained: supervised RMT under the storm.
	p, k, err := newRMTPrefetcher(core.Config{CtxHistory: 4096, Mode: mode, Quarantine: chaosQuarantine})
	if err != nil {
		return out, err
	}
	sup := k.Supervise(chaosSupervisorConfig(seed))
	inj := fault.NewInjector(seed, rules...)
	k.SetFaultInjector(inj)
	contained := memsim.Run(cfg, p.WithName("rmt-contained"), trace)
	out.ContainedJCT = contained.CompletionSeconds()
	out.Trips, out.Fallbacks, out.Probes, out.Recoveries = sup.Counts()
	out.Reopens = k.Metrics.Counter("supervisor.reopens").Load()
	out.InjectedTraps = inj.Injected(fault.KindVMTrap)
	out.InjectedHelperErrs = inj.Injected(fault.KindHelperError)
	out.InjectedSwapFaults = inj.Injected(fault.KindModelSwapFail)
	out.SwapFaultsRetried = k.Metrics.Counter("core.model_swap_faults").Load()

	// Uncontained: identical storm, no supervisor.
	p2, k2, err := NewRMTPrefetcher(mode)
	if err != nil {
		return out, err
	}
	k2.SetFaultInjector(fault.NewInjector(seed, rules...))
	uncontained := memsim.Run(cfg, p2.WithName("rmt-uncontained"), trace)
	out.UncontainedJCT = uncontained.CompletionSeconds()
	return out, nil
}
