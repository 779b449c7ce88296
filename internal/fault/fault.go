// Package fault implements a deterministic, seeded fault-injection framework
// for the RMT datapaths. The paper's safety argument (§3.3) is that a learned
// in-kernel program may degrade performance but never correctness; this
// package manufactures the runtime failures — helper errors, forced VM traps,
// model-swap failures, verdict corruption, and latency spikes charged to the
// simulators' virtual clocks — that the kernel supervisor (internal/core)
// must contain for that argument to hold dynamically, not just at admission.
//
// Injection is scheduled per target (a hook name, or TargetModelSwap for the
// control plane's model-push path) and per firing index, so a given seed and
// rule set reproduces the exact same fault timeline on every run. The chaos
// experiment (internal/experiments) and the supervisor's unit tests both rely
// on this determinism.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindHelperError makes the next whitelisted helper call in the target
	// program return an error, which the VM surfaces as a trap.
	KindHelperError Kind = iota
	// KindVMTrap aborts the target program with a forced runtime trap before
	// it executes (a stand-in for a JIT fault or wild bytecode).
	KindVMTrap
	// KindModelSwapFail makes the kernel's model swap (the control plane's
	// push path) fail transiently.
	KindModelSwapFail
	// KindCorruptVerdict silently replaces the program's verdict with a
	// seeded garbage value (table-entry / result corruption — the fault the
	// breaker cannot see and the accuracy monitor must catch).
	KindCorruptVerdict
	// KindLatencySpike charges LatencyNs of synchronous stall to the firing
	// datapath; the simulators add it to their virtual clocks.
	KindLatencySpike
	// KindEnginePanic panics the execution engine mid-run. The fire path's
	// panic containment recovers it into a typed engine trap; the engine
	// sentinel's health ladder counts it against the tier that ran.
	KindEnginePanic
	// KindMiscompile silently perturbs the native (AOT) result — a stand-in
	// for a codegen bug or a stale registry entry. Only the sentinel's
	// sampled differential check can catch it.
	KindMiscompile
	// KindForceDivergence forces the sentinel's sampled comparison to report
	// a divergence even when the engines agreed (a detector self-test; it is
	// a no-op on fires the sampler does not select).
	KindForceDivergence

	numKinds
)

var kindNames = [...]string{
	KindHelperError:     "helper-error",
	KindVMTrap:          "vm-trap",
	KindModelSwapFail:   "model-swap-fail",
	KindCorruptVerdict:  "corrupt-verdict",
	KindLatencySpike:    "latency-spike",
	KindEnginePanic:     "engine-panic",
	KindMiscompile:      "miscompile",
	KindForceDivergence: "force-divergence",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TargetModelSwap is the injector target the kernel consults on model swaps.
const TargetModelSwap = "ctrl/model_swap"

// Injected-failure sentinels. Consumers branch with errors.Is: the supervisor
// treats these like any other datapath error, while retry loops may classify
// ErrInjectedSwap as transient.
var (
	ErrInjectedHelper = errors.New("fault: injected helper error")
	ErrInjectedTrap   = errors.New("fault: injected VM trap")
	ErrInjectedSwap   = errors.New("fault: injected model-swap failure")
	// ErrInjectedEnginePanic is the payload of a KindEnginePanic panic; the
	// kernel's recover wraps it into its typed engine-panic trap.
	ErrInjectedEnginePanic = errors.New("fault: injected engine panic")
)

// Rule schedules one fault kind against one target. A rule matches firing
// index i of its target when Start <= i, (i-Start) % Every == 0, and fewer
// than Count eligible indices have passed (Count <= 0 is unbounded). Prob,
// when in (0,1), additionally gates each eligible index with a seeded coin
// flip so failure timelines can be made bursty but still reproducible.
type Rule struct {
	// Target is the hook name (or TargetModelSwap) the rule applies to.
	// Empty matches every target.
	Target string
	// Kind is the fault class to inject.
	Kind Kind
	// Start is the first firing index (0-based) eligible for injection.
	Start int64
	// Count bounds how many eligible indices inject. <=0 is unbounded.
	Count int64
	// Every is the stride between eligible indices. <=0 selects 1.
	Every int64
	// Prob gates each eligible index with a seeded coin flip when in (0,1).
	Prob float64
	// LatencyNs is the stall charged by KindLatencySpike.
	LatencyNs int64
}

func (r Rule) matches(target string, idx int64, rng *rand.Rand) bool {
	if r.Target != "" && r.Target != target {
		return false
	}
	if idx < r.Start {
		return false
	}
	every := r.Every
	if every <= 0 {
		every = 1
	}
	if (idx-r.Start)%every != 0 {
		return false
	}
	if r.Count > 0 && (idx-r.Start)/every >= r.Count {
		return false
	}
	if r.Prob > 0 && r.Prob < 1 && rng.Float64() >= r.Prob {
		return false
	}
	return true
}

// Outcome is the combined injection decision for one firing of a target.
// Multiple rules may contribute (e.g. a trap and a latency spike on the same
// firing).
type Outcome struct {
	// Target and Index locate the firing the outcome applies to.
	Target string
	Index  int64

	// Trap forces a VM trap; TrapErr carries the injected error.
	Trap    bool
	TrapErr error
	// HelperErr, when non-nil, is returned by the next helper call.
	HelperErr error
	// SwapErr, when non-nil, fails the model swap.
	SwapErr error
	// Corrupt replaces the program verdict with CorruptVal.
	Corrupt    bool
	CorruptVal int64
	// LatencyNs is synchronous stall to charge to the virtual clock.
	LatencyNs int64
	// EnginePanic, when non-nil, is panicked inside the execution engine so
	// the fire path's containment (recover) is exercised for real.
	EnginePanic error
	// Miscompile perturbs the native AOT result by MiscompileDelta (nonzero)
	// without any error the breaker could see.
	Miscompile      bool
	MiscompileDelta int64
	// ForceDiverge makes the sentinel's sampled comparison report divergence.
	ForceDiverge bool
}

// Empty reports whether the outcome injects nothing.
func (o *Outcome) Empty() bool {
	return o == nil || (!o.Trap && o.HelperErr == nil && o.SwapErr == nil && !o.Corrupt &&
		o.LatencyNs == 0 && o.EnginePanic == nil && !o.Miscompile && !o.ForceDiverge)
}

// Injector evaluates the rule set against a per-target firing counter. All
// methods are safe for concurrent use; determinism holds for any fixed
// sequence of Check calls.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	index map[string]int64
	hits  [numKinds]int64
}

// NewInjector builds an injector with a deterministic seed.
func NewInjector(seed int64, rules ...Rule) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: append([]Rule(nil), rules...),
		index: make(map[string]int64),
	}
}

// Check advances target's firing index and returns the faults scheduled for
// it, or nil when the firing is clean. The caller decides which parts of the
// outcome apply (e.g. the kernel discards outcomes for quarantined programs —
// a fault cannot strike a datapath that is not running).
func (inj *Injector) Check(target string) *Outcome {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	idx := inj.index[target]
	inj.index[target] = idx + 1

	out := &Outcome{Target: target, Index: idx}
	for _, r := range inj.rules {
		if !r.matches(target, idx, inj.rng) {
			continue
		}
		inj.hits[r.Kind]++
		switch r.Kind {
		case KindHelperError:
			out.HelperErr = fmt.Errorf("%w: %s fire %d", ErrInjectedHelper, target, idx)
		case KindVMTrap:
			out.Trap = true
			out.TrapErr = fmt.Errorf("%w: %s fire %d", ErrInjectedTrap, target, idx)
		case KindModelSwapFail:
			out.SwapErr = fmt.Errorf("%w: %s attempt %d", ErrInjectedSwap, target, idx)
		case KindCorruptVerdict:
			out.Corrupt = true
			out.CorruptVal = inj.rng.Int63()
		case KindLatencySpike:
			out.LatencyNs += r.LatencyNs
		case KindEnginePanic:
			out.EnginePanic = fmt.Errorf("%w: %s fire %d", ErrInjectedEnginePanic, target, idx)
		case KindMiscompile:
			out.Miscompile = true
			// Deterministic nonzero perturbation: a seeded garbage delta so
			// the corrupted verdict is recognizably wrong yet reproducible.
			out.MiscompileDelta = 1 + inj.rng.Int63n(1<<30)
		case KindForceDivergence:
			out.ForceDiverge = true
		}
	}
	if out.Empty() {
		return nil
	}
	return out
}

// Injected reports how many faults of a kind have been produced.
func (inj *Injector) Injected(k Kind) int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if k < 0 || k >= numKinds {
		return 0
	}
	return inj.hits[k]
}
