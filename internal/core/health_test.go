package core

import (
	"math/rand"
	"slices"
	"testing"

	"rmtk/internal/aot"
	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/vm"
)

// This file checks the engine-health ladder against a reference model, as
// breaker_test.go checks the breaker: refHealth transcribes the ladder's rules
// for one program on one goroutine, and a real sentinel driven through
// Kernel.Fire must agree with it after every fire.

// refHealth is the engine-health ladder of one program content hash, driven
// from one goroutine. With SampleEvery 1 every execution at JIT or above is
// checked, so the sampler reduces to a ticket count.
type refHealth struct {
	cfg       SentinelConfig
	q         QuarantineConfig
	hash      string
	max, pref EngineTier // capability ceiling; the configuration's tier
	tier      EngineTier
	consec    int
	cooldown  int64
	wait      int64
	probeOK   int
	tickets   int64 // sampler-clock tickets drawn
	demoted   int64
	history   []IncidentEvent
	counts    SentinelCounts
}

// watermark is the sampler clock as the health record reports it: tickets are
// claimed leaseChunk at a time, and one goroutine consumes them in order.
func (r *refHealth) watermark() int64 {
	return (r.tickets + leaseChunk - 1) / leaseChunk * leaseChunk
}

// fire runs one execution whose engine run panics and/or whose checked
// comparison is forced to diverge, and reports whether the caller sees a trap
// and whether the ladder routed the fire to the baseline.
func (r *refHealth) fire(panics, diverges bool) (trapped, baseline bool) {
	tier, probe := r.pref, false
	if r.tier < r.pref {
		tier = r.tier
		if r.wait--; r.wait <= 0 {
			tier, probe = min(r.tier+1, r.pref), true
		}
	}
	if tier == TierBaseline {
		r.counts.BaselineFires++
		return false, true
	}
	if tier < TierJIT {
		// No checked reference below the JIT: the native run is the answer.
		if panics {
			r.fault(tier, probe, -1, CausePanic)
			return true, false
		}
		r.ok(tier, probe)
		return false, false
	}
	fireIdx := int64(-1)
	if !probe {
		r.tickets++
		fireIdx = r.tickets
	}
	r.counts.Sampled++
	switch {
	case panics:
		r.fault(tier, probe, fireIdx, CausePanic)
	case diverges:
		r.counts.Divergences++
		r.fault(tier, probe, fireIdx, CauseDivergence)
	default:
		r.ok(tier, probe)
		return false, false
	}
	r.counts.CheckedVerdicts++ // the checked run answers
	return false, false
}

func (r *refHealth) ok(ran EngineTier, probe bool) {
	if !probe {
		r.consec = 0
		return
	}
	if r.probeOK++; r.probeOK < r.q.ProbeSuccesses {
		r.wait = 1 // the next fire probes again
		return
	}
	r.probeOK = 0
	if ran > r.tier {
		r.moveTo(ran, CausePromoted, r.watermark())
		r.counts.Promotions++
	}
}

func (r *refHealth) fault(ran EngineTier, probe bool, fireIdx int64, cause string) {
	if cause == CausePanic {
		r.counts.Panics++
	}
	if probe {
		r.probeOK = 0
		next := r.cooldown * backoffFactor
		if next <= r.cooldown {
			next = r.cooldown + 1
		}
		r.cooldown = min(next, r.q.MaxCooldownFires)
		r.wait = r.cooldown
		r.push(ran, r.tier, CauseProbeFailed, r.watermark())
		r.counts.ProbeFailures++
		return
	}
	if cause == CausePanic {
		if r.consec++; r.consec < r.cfg.DemoteAfter {
			return
		}
		r.consec = 0
	}
	if r.tier >= ran && ran > TierBaseline {
		r.demoted++
		if fireIdx < 0 {
			fireIdx = r.watermark()
		}
		r.moveTo(ran-1, cause, fireIdx)
		r.counts.Demotions++
	}
}

func (r *refHealth) moveTo(to EngineTier, cause string, fire int64) {
	r.push(r.tier, to, cause, fire)
	r.tier = to
	r.cooldown = r.q.CooldownFires
	r.wait = r.cooldown
	r.probeOK = 0
}

// push records a transition as the history reports it, less the free-text
// Detail.
func (r *refHealth) push(from, to EngineTier, cause string, fire int64) {
	r.history = append(r.history, IncidentEvent{Program: "health", Hash: r.hash, From: from, To: to, Cause: cause, Fire: fire})
	if len(r.history) > r.cfg.History {
		r.history = r.history[len(r.history)-r.cfg.History:]
	}
}

// healthVariant is one (mode, program) pairing: the configured tier and
// whether the program has a native function, which sets the capability
// ceiling.
type healthVariant struct {
	mode   ExecMode
	native bool
}

var healthVariants = []healthVariant{{ModeInterp, false}, {ModeJIT, false}, {ModeJIT, true}, {ModeAOT, true}}

const (
	healthPlainSrc  = "mov r0, r1\naddimm r0, 100\nexit"
	healthNativeSrc = "mov r0, r1\naddimm r0, 4321\nexit"
)

// registerHealthNative binds a correct native function to healthNativeSrc's
// content hash, with the step count the checked interpreter reports.
func registerHealthNative(t *testing.T) {
	t.Helper()
	k := NewKernel(Config{DisableVerdictCache: true})
	pid := install(t, k, &isa.Program{Name: "native", Insns: isa.MustAssemble(healthNativeSrc)})
	tb := table.New("t", "eng/health", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	steps := k.Fire("eng/health", 1, 0, 0).Steps
	aot.Register(statusOf(t, k, "native").Hash, "health_ref_native", func(_ vm.Env, _ *aot.Scratch, r1, _, _ int64) (int64, int64, error) {
		return r1 + 4321, steps, nil
	})
}

// Health-differential op bytes: the low three bits pick the fire's faults
// (5 an engine panic, 6 a forced divergence, 7 both, else clean).
const (
	healthPanic   = 5
	healthDiverge = 6
	healthBoth    = 7
)

// diffHealth drives a sentinel (SampleEvery 1) and the reference with one op
// stream — one fire per op, its faults scheduled as one-index injector rules —
// and fails on the first fire after which tier, demotions, history, counts or
// the fire's routing disagree.
func diffHealth(t *testing.T, v healthVariant, cfg SentinelConfig, q QuarantineConfig, ops []byte) {
	t.Helper()
	src := healthPlainSrc
	if v.native {
		src = healthNativeSrc
	}
	const hook = "eng/health"
	k := NewKernel(Config{Mode: v.mode, DisableVerdictCache: true, Quarantine: q})
	tb := table.New("t", hook, table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	pid := install(t, k, &isa.Program{Name: "health", Insns: isa.MustAssemble(src)})
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	k.RegisterFallback(hook, FallbackFunc{Label: "base", Fn: func(string, int64, int64, int64) (int64, []int64) { return -1, nil }})
	var rules []fault.Rule
	for i, op := range ops {
		if op&7 == healthPanic || op&7 == healthBoth {
			rules = append(rules, fault.Rule{Target: hook, Kind: fault.KindEnginePanic, Start: int64(i), Count: 1})
		}
		if op&7 == healthDiverge || op&7 == healthBoth {
			rules = append(rules, fault.Rule{Target: hook, Kind: fault.KindForceDivergence, Start: int64(i), Count: 1})
		}
	}
	k.SetFaultInjector(fault.NewInjector(1, rules...))
	sen := k.AttachSentinel(cfg)

	st := statusOf(t, k, "health")
	if want := map[bool]EngineTier{false: TierJIT, true: TierAOT}[v.native]; st.MaxTier != want {
		t.Fatalf("max tier %s, want %s", st.MaxTier, want)
	}
	ref := &refHealth{cfg: sen.Config(), q: q.withDefaults(), hash: st.Hash, max: st.MaxTier, pref: min(v.mode, st.MaxTier), tier: st.MaxTier}
	ref.cooldown = ref.q.CooldownFires
	for i, op := range ops {
		panics, diverges := op&7 == healthPanic || op&7 == healthBoth, op&7 == healthDiverge || op&7 == healthBoth
		wantTrap, wantBase := ref.fire(panics, diverges)
		res := k.Fire(hook, 1, 0, 0)
		if res.Trapped != wantTrap || res.FellBack != wantBase {
			t.Fatalf("op %d (%#x): trapped=%v fellBack=%v, reference %v/%v (%+v, cfg %+v)",
				i, op, res.Trapped, res.FellBack, wantTrap, wantBase, v, ref.q)
		}
		st := statusOf(t, k, "health")
		for i := range st.History {
			st.History[i].Detail = ""
		}
		if st.Tier != ref.tier || st.Demotions != ref.demoted || !slices.Equal(st.History, ref.history) {
			t.Fatalf("op %d (%#x): tier %s demotions %d history %v\nreference tier %s demotions %d history %v (%+v, cfg %+v)",
				i, op, st.Tier, st.Demotions, st.History, ref.tier, ref.demoted, ref.history, v, ref.q)
		}
		got := sen.Counts()
		got.CheckSteps = 0
		if got != ref.counts {
			t.Fatalf("op %d (%#x): counts %+v, reference %+v (%+v, cfg %+v)", i, op, got, ref.counts, v, ref.q)
		}
	}
}

// healthConfig spans the ladder's configuration axes.
func healthConfig(demoteAfter int, rng *rand.Rand) (SentinelConfig, QuarantineConfig) {
	q := QuarantineConfig{
		CooldownFires:    1 + rng.Int63n(8),
		MaxCooldownFires: 32,
		ProbeSuccesses:   1 + rng.Intn(4),
	}
	return SentinelConfig{
		SampleEvery: 1,
		DemoteAfter: demoteAfter,
		History:     1 + rng.Intn(16),
		Seed:        rng.Int63(),
	}, q
}

// TestHealthMatchesReference: 4 (mode, program) variants × DemoteAfter 1–3 ×
// 25 seeds of 400 fires, faults drawn in bursts, on which the sentinel's
// ladder must agree with the reference after every fire.
func TestHealthMatchesReference(t *testing.T) {
	registerHealthNative(t)
	seeds, steps := 25, 400
	if testing.Short() {
		seeds = 4
	}
	ops := make([]byte, steps)
	for vi, v := range healthVariants {
		for demote := 1; demote <= 3; demote++ {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)<<8 | int64(vi<<4|demote)))
				cfg, q := healthConfig(demote, rng)
				// Fault rate 1–40 %, redrawn every 40 fires, so storms that
				// exhaust the ladder alternate with calm that re-promotes.
				rate := 0.0
				for i := range ops {
					if i%40 == 0 {
						rate = 0.01 + 0.39*rng.Float64()*rng.Float64()
					}
					ops[i] = 0
					if rng.Float64() < rate {
						ops[i] = byte(healthPanic + rng.Intn(3))
					}
				}
				diffHealth(t, v, cfg, q, ops)
			}
		}
	}
}

// FuzzHealthDifferential hands the op stream and the config axes to the
// fuzzer.
func FuzzHealthDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), []byte{5, 5, 5, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(2), uint8(3), uint8(3), []byte{6, 0, 0, 5, 0, 7, 0, 0, 0, 0, 0, 6, 0, 0, 0})
	f.Add(int64(3), uint8(2), uint8(2), []byte{5, 5, 6, 5, 5, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, variant, demote uint8, ops []byte) {
		registerHealthNative(t)
		rng := rand.New(rand.NewSource(seed))
		cfg, q := healthConfig(1+int(demote%3), rng)
		diffHealth(t, healthVariants[int(variant)%len(healthVariants)], cfg, q, ops)
	})
}
