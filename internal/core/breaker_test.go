package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/telemetry"
)

// This file tests the lock-free breaker and the snapshot bindings that carry
// it: a differential test (and fuzz target) against the single-mutex breaker
// the lock-free one replaced, kept here as the reference model; lock-freedom
// and zero allocation of the success path; a -race hammer; the lifetime of a
// binding across republish; and the fallback fire that must not need k.mu.

// refBreaker is the pre-rewrite breaker, verbatim in its decisions: one mutex
// (elided — the reference is driven from one goroutine), a []bool ring, a
// scan per failure.
type refBreaker struct {
	cfg         SupervisorConfig
	q           QuarantineConfig
	rng         *rand.Rand
	state       BreakerState
	consecFails int
	window      []bool
	windowPos   int
	windowN     int
	cooldown    int64
	wait        int64
	probeOK     int

	trips, fallbacks, probes, recoveries int64
}

func newRefBreaker(cfg SupervisorConfig, q QuarantineConfig) *refBreaker {
	cfg, q = cfg.withDefaults(), q.withDefaults()
	r := &refBreaker{cfg: cfg, q: q, rng: rand.New(rand.NewSource(cfg.Seed)), cooldown: q.CooldownFires}
	if cfg.WindowM > 0 {
		r.window = make([]bool, cfg.WindowM)
	}
	return r
}

func (r *refBreaker) allow() Decision {
	switch r.state {
	case BreakerClosed:
		return DecisionRun
	case BreakerHalfOpen:
		return DecisionProbe
	}
	if r.wait--; r.wait > 0 {
		r.fallbacks++
		return DecisionFallback
	}
	r.state = BreakerHalfOpen
	r.probeOK = 0
	return DecisionProbe
}

func (r *refBreaker) record(steps, latencyNs int64, runErr error) (failure error, tripped bool) {
	failure = runErr
	if failure == nil && r.cfg.StepSLO > 0 && steps > r.cfg.StepSLO {
		failure = ErrStepSLO
	}
	if failure == nil && r.cfg.LatencySLONs > 0 && latencyNs > r.cfg.LatencySLONs {
		failure = ErrLatencySLO
	}
	if len(r.window) > 0 {
		r.window[r.windowPos] = failure != nil
		r.windowPos = (r.windowPos + 1) % len(r.window)
		if r.windowN < len(r.window) {
			r.windowN++
		}
	}
	if failure == nil {
		r.consecFails = 0
		if r.state == BreakerHalfOpen {
			r.probes++
			if r.probeOK++; r.probeOK >= r.q.ProbeSuccesses {
				r.state = BreakerClosed
				r.cooldown = r.q.CooldownFires
				r.recoveries++
			}
		}
		return nil, false
	}
	if r.state == BreakerHalfOpen {
		r.probes++
		next := r.cooldown * backoffFactor
		if next <= r.cooldown {
			next = r.cooldown + 1
		}
		r.cooldown = min(next, r.q.MaxCooldownFires)
		r.open()
		return failure, false
	}
	r.consecFails++
	windowed := false
	if r.cfg.WindowK > 0 && r.windowN >= r.cfg.WindowM {
		fails := 0
		for _, f := range r.window {
			if f {
				fails++
			}
		}
		windowed = fails >= r.cfg.WindowK
	}
	if r.state == BreakerClosed && (r.consecFails >= r.cfg.TripConsecutive || windowed) {
		r.trips++
		r.open()
		return failure, true
	}
	return failure, false
}

func (r *refBreaker) open() {
	r.state = BreakerOpen
	r.consecFails = 0
	r.probeOK = 0
	wait := r.cooldown
	if r.cfg.JitterFrac > 0 {
		wait = int64(float64(wait) * (1 + r.cfg.JitterFrac*(2*r.rng.Float64()-1)))
	}
	r.wait = max(wait, 1)
}

func (r *refBreaker) trip() {
	if r.state != BreakerOpen {
		r.trips++
		r.open()
	}
}

func (r *refBreaker) reinstate() {
	r.state = BreakerClosed
	r.consecFails = 0
	r.probeOK = 0
	r.cooldown = r.q.CooldownFires
}

var errDiffTrap = errors.New("diff: injected trap")

// diffBreakers drives the reference and the real breaker (through the
// id-keyed Supervisor API) with one op stream and fails on the first step at
// which they disagree. An op byte's low six bits pick the action (0 Trip,
// 1 Reinstate, else a fire), its top two the fire's outcome (0, 1 success;
// 2 trap; 3 steps and latency one past their SLOs).
func diffBreakers(t testing.TB, cfg SupervisorConfig, q QuarantineConfig, ops []byte) {
	t.Helper()
	const pid = 3
	ref := newRefBreaker(cfg, q)
	sup := newSupervisor(cfg, q, telemetry.NewRegistry())
	sup.bind(pid)
	c := sup.cfg
	for i, op := range ops {
		switch op & 0x3f {
		case 0:
			ref.trip()
			sup.Trip(pid)
		case 1:
			ref.reinstate()
			sup.Reinstate(pid)
		default:
			want, got := ref.allow(), sup.Allow(pid)
			if want != got {
				t.Fatalf("op %d: Allow = %v, reference %v (cfg %+v)", i, got, want, c)
			}
			if want == DecisionFallback {
				break
			}
			var runErr error
			var steps, lat int64 = 8, 100
			switch op >> 6 {
			case 2:
				runErr = errDiffTrap
			case 3:
				steps, lat = c.StepSLO+1, c.LatencySLONs+1
			}
			wantF, wantT := ref.record(steps, lat, runErr)
			gotF, gotT := sup.RecordRun(pid, "h", steps, lat, runErr)
			if wantT != gotT || (wantF == nil) != (gotF == nil) || (wantF != nil && !errors.Is(gotF, wantF)) {
				t.Fatalf("op %d: RecordRun = (%v, %v), reference (%v, %v) (cfg %+v)", i, gotF, gotT, wantF, wantT, c)
			}
		}
		if got := sup.State(pid); got != ref.state {
			t.Fatalf("op %d: state %v, reference %v (cfg %+v)", i, got, ref.state, c)
		}
		tr, fb, pr, rc := sup.Counts()
		if tr != ref.trips || fb != ref.fallbacks || pr != ref.probes || rc != ref.recoveries {
			t.Fatalf("op %d: counts %d/%d/%d/%d, reference %d/%d/%d/%d (cfg %+v)",
				i, tr, fb, pr, rc, ref.trips, ref.fallbacks, ref.probes, ref.recoveries, c)
		}
	}
}

// diffConfig spans the configuration axes the state machine branches on.
func diffConfig(trip, windowM, slo int, rng *rand.Rand) (SupervisorConfig, QuarantineConfig) {
	q := QuarantineConfig{
		CooldownFires:    1 + rng.Int63n(8),
		MaxCooldownFires: 32,
		ProbeSuccesses:   1 + rng.Intn(4),
	}
	cfg := SupervisorConfig{
		TripConsecutive: trip,
		JitterFrac:      []float64{0, 0.1, 0.5}[rng.Intn(3)],
		Seed:            rng.Int63(),
	}
	if windowM > 0 {
		cfg.WindowM = windowM
		cfg.WindowK = 1 + rng.Intn(min(windowM, 8))
	}
	switch slo {
	case 1:
		cfg.StepSLO = 64
	case 2:
		cfg.LatencySLONs = 1000
	}
	return cfg, q
}

// TestBreakerMatchesReference: 10 200 seeded op sequences — TripConsecutive
// 1–5 × window off / M ∈ {4, 64, 200} × no / step / latency SLO, 170 seeds
// each, with Trip and Reinstate interleaved — on which the lock-free breaker
// must agree with the mutex reference at every step.
func TestBreakerMatchesReference(t *testing.T) {
	seeds, steps := 170, 600
	if testing.Short() {
		seeds = 20
	}
	ops := make([]byte, steps)
	for trip := 1; trip <= 5; trip++ {
		for _, m := range []int{0, 4, 64, 200} {
			for slo := 0; slo < 3; slo++ {
				for seed := 0; seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(int64(seed)<<16 | int64(trip<<8|m)))
					cfg, q := diffConfig(trip, m, slo, rng)
					// Failure rate 1–40 %, drawn per sequence, in bursts: the
					// rate flips between itself and a fifth of itself.
					rate := 0.01 + 0.39*rng.Float64()
					for i := range ops {
						if i%50 == 0 && rng.Intn(2) == 0 {
							rate = min(0.4, max(0.002, rate*[]float64{0.2, 5}[rng.Intn(2)]))
						}
						switch r := rng.Float64(); {
						case r < 0.004:
							ops[i] = 0 // Trip
						case r < 0.012:
							ops[i] = 1 // Reinstate
						case rng.Float64() < rate:
							ops[i] = byte(2+rng.Intn(2))<<6 | 2
						default:
							ops[i] = 2
						}
					}
					diffBreakers(t, cfg, q, ops)
				}
			}
		}
	}
}

// FuzzBreakerDifferential hands the op stream and the config axes to the
// fuzzer.
func FuzzBreakerDifferential(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(0), uint8(0), []byte{0x82, 0x82, 0x82, 2, 2, 2, 2, 2, 2})
	f.Add(int64(2), uint8(5), uint16(4), uint8(1), []byte{0x82, 2, 0xc2, 2, 0x82, 2, 0, 2, 1, 2})
	f.Add(int64(3), uint8(1), uint16(200), uint8(2), []byte{0xc2, 2, 2, 2, 2, 0xc2, 1, 0xc2})
	f.Fuzz(func(t *testing.T, seed int64, trip uint8, windowM uint16, slo uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		cfg, q := diffConfig(1+int(trip%5), int(windowM%257), int(slo%3), rng)
		diffBreakers(t, cfg, q, ops)
	})
}

// supervisedKernel wires one pure program behind a 16-key exact table on a
// supervised kernel with the engine sentinel attached.
func supervisedKernel(t testing.TB, cfg Config, scfg SupervisorConfig) (*Kernel, *Supervisor, int64, *table.Table) {
	t.Helper()
	k := NewKernel(cfg)
	pid, rep, err := k.InstallProgram(&isa.Program{
		Name:  "bound",
		Insns: isa.MustAssemble("mov r0, r1\nadd r0, r2\nexit"),
	})
	if err != nil || !rep.Pure {
		t.Fatalf("install: pure=%v err=%v", rep != nil && rep.Pure, err)
	}
	tb := table.New("bound_tab", "sup/bound", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 16; key++ {
		if err := tb.Insert(&table.Entry{Key: key, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
			t.Fatal(err)
		}
	}
	sup := k.Supervise(scfg)
	k.AttachSentinel(SentinelConfig{SampleEvery: 64})
	return k, sup, pid, tb
}

// TestSuccessPathTakesNoBreakerLock: with every breaker's mutex held by the
// test, 1 000 cached and 1 000 uncached successful fires still complete, and
// neither kind allocates.
func TestSuccessPathTakesNoBreakerLock(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"cached", Config{}}, {"uncached", Config{DisableVerdictCache: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			k, sup, _, _ := supervisedKernel(t, tc.cfg, SupervisorConfig{WindowK: 2, WindowM: 8})
			var i int64
			fire := func() {
				res := k.Fire("sup/bound", i%16, 5, 0)
				if res.Verdict != i%16+5 || res.Trapped || res.FellBack {
					t.Errorf("fire %d: %+v", i, res)
				}
				i++
			}
			for n := 0; n < 64; n++ { // fill the window, admit the flows
				fire()
			}
			if hit := k.Fire("sup/bound", 1, 5, 0).CacheHit; hit != (tc.name == "cached") {
				t.Fatalf("CacheHit = %v on the %s kernel", hit, tc.name)
			}
			for _, b := range *sup.progs.Load() {
				if b != nil {
					b.mu.Lock()
					defer b.mu.Unlock()
				}
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for n := 0; n < 1000; n++ {
					fire()
				}
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("successful fires blocked on a held breaker lock")
			}
			if allocs := testing.AllocsPerRun(1000, fire); allocs != 0 {
				t.Errorf("%v allocs per successful fire, want 0", allocs)
			}
		})
	}
}

// TestBreakerConcurrentFires (run under -race): eight goroutines of mixed
// success/failure traffic on one program with the window on trip the breaker
// and lose no failure from supervisor.errors.*; after Reinstate, all-success
// traffic keeps it closed and ages every failure out of the window.
func TestBreakerConcurrentFires(t *testing.T) {
	reg := telemetry.NewRegistry()
	sup := newSupervisor(SupervisorConfig{TripConsecutive: 4, WindowK: 6, WindowM: 64}, QuarantineConfig{CooldownFires: 16}, reg)
	b := sup.bind(1)
	const workers, perWorker = 8, 2000
	hammer := func(failEvery int) (failures int64) {
		var wg sync.WaitGroup
		var issued atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if b.allow() == DecisionFallback {
						continue
					}
					var err error
					if failEvery > 0 && (i+w)%failEvery == 0 {
						err = errDiffTrap
						issued.Add(1)
					}
					if failure, _ := b.record("h", 8, 0, err); (failure != nil) != (err != nil) {
						t.Errorf("record(%v) = %v", err, failure)
					}
				}
			}(w)
		}
		wg.Wait()
		return issued.Load()
	}
	failures := hammer(3)
	if trips, _, _, _ := sup.Counts(); trips == 0 {
		t.Fatal("breaker never tripped under 1-in-3 failures")
	}
	if got := reg.Counter("supervisor.errors.h").Load(); got != failures {
		t.Fatalf("supervisor.errors.h = %d, %d failures recorded", got, failures)
	}
	sup.Reinstate(1)
	tripsBefore, _, _, _ := sup.Counts()
	hammer(0)
	if st := sup.State(1); st != BreakerClosed {
		t.Fatalf("state %v after reinstate + all-success traffic", st)
	}
	if trips, _, _, _ := sup.Counts(); trips != tripsBefore {
		t.Fatalf("all-success traffic tripped the breaker (%d → %d)", tripsBefore, trips)
	}
	if f, c := b.fails.Load(), b.consecFails.Load(); f != 0 || c != 0 {
		t.Fatalf("window still holds %d failures, consecFails %d, after %d successes", f, c, workers*perWorker)
	}
}

// TestBindingLifetime: a binding lives and dies with its snapshot. After a
// program reswap or a supervisor replacement moves the generation, no fire
// consults the breaker the old snapshot bound — it is poisoned open here, so
// one consult would fall back — while a republish that changes neither keeps
// the very same breaker.
func TestBindingLifetime(t *testing.T) {
	k, sup, pid, tb := supervisedKernel(t, Config{}, SupervisorConfig{})
	k.RegisterFallback("sup/*", FallbackFunc{Label: "base", Fn: func(string, int64, int64, int64) (int64, []int64) { return -7, nil }})
	poison := func(b *breaker) {
		b.mu.Lock()
		b.moveTo(rungOpen, 1<<40)
		b.mu.Unlock()
	}
	// traffic fires the hook from a second goroutine while mutate runs (the
	// -race half of the test), then returns once mutate has.
	traffic := func(mutate func()) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if res := k.Fire("sup/bound", i%16, 1, 0); res.FellBack || res.Trapped {
					t.Errorf("mid-traffic fire: %+v", res)
					return
				}
			}
		}()
		mutate()
		close(stop)
		wg.Wait()
	}
	assertLive := func(what string, wantDelta int64) {
		t.Helper()
		hits := 0
		for i := int64(0); i < 64; i++ {
			res := k.Fire("sup/bound", i%16, 1, 0)
			if res.FellBack || res.Verdict != i%16+1+wantDelta {
				t.Fatalf("%s: fire %d consulted a stale binding: %+v", what, i, res)
			}
			if res.CacheHit {
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("%s: flows never became replayable again", what)
		}
	}
	brk := func(id int64) *breaker { return k.def.route.Load().prog(id).brk }

	assertLive("baseline", 0)
	old := brk(pid)
	if old == nil || old != sup.breakerOf(pid) {
		t.Fatal("binding does not carry the supervisor's breaker")
	}

	// Republish without touching program or supervisor (a tenant arrives, a
	// table is created): same breaker, so trips and cooldowns survive.
	gen := k.Generation()
	traffic(func() {
		if err := k.RegisterTenant("alpha", TenantQuota{}); err != nil {
			t.Error(err)
		}
		if _, err := k.CreateTable(table.New("other", "sup/other", table.MatchExact)); err != nil {
			t.Error(err)
		}
	})
	if k.Generation() == gen || brk(pid) != old {
		t.Fatalf("republish: generation %d → %d, breaker identity kept = %v", gen, k.Generation(), brk(pid) == old)
	}
	if tbrk := k.tenant("alpha").route.Load().prog(pid).brk; tbrk == nil || tbrk == old {
		t.Fatal("tenant snapshot shares the default tenant's breaker")
	}
	assertLive("republish", 0)

	// Reswap: a new program takes over the entries, the old one is removed.
	var pid2 int64
	traffic(func() {
		pid2 = install(t, k, &isa.Program{Name: "bound2", Insns: isa.MustAssemble("mov r0, r1\nadd r0, r2\naddimm r0, 100\nexit")})
		for key := uint64(0); key < 16; key++ {
			if err := tb.Insert(&table.Entry{Key: key, Action: table.Action{Kind: table.ActionProgram, ProgID: pid2}}); err != nil {
				t.Error(err)
			}
		}
		if err := k.RemoveProgram(pid); err != nil {
			t.Error(err)
		}
	})
	poison(old)
	assertLive("reswap", 100)

	// Replace the supervisor: every binding gets the new supervisor's breaker.
	old2 := brk(pid2)
	traffic(func() { sup = k.Supervise(SupervisorConfig{}) })
	poison(old2)
	if nb := brk(pid2); nb == old2 || nb != sup.breakerOf(pid2) {
		t.Fatal("snapshot still binds the replaced supervisor's breaker")
	}
	assertLive("new supervisor", 100)
}

// TestFallbackFireTakesNoKernelLock: a quarantined hook's fallback fire must
// complete while a control-plane commit holds k.mu — the degraded datapath is
// exactly when the fire path may not wait on the control plane.
func TestFallbackFireTakesNoKernelLock(t *testing.T) {
	k, sup, pid, _ := supervisedKernel(t, Config{Quarantine: QuarantineConfig{CooldownFires: 1 << 20}}, SupervisorConfig{})
	k.RegisterFallback("other/*", FallbackFunc{Label: "wrong", Fn: func(string, int64, int64, int64) (int64, []int64) { return 1, nil }})
	k.RegisterFallback("sup/*", FallbackFunc{Label: "base", Fn: func(_ string, key, _, _ int64) (int64, []int64) {
		return -7, []int64{key}
	}})
	sup.Trip(pid)

	k.mu.Lock()
	defer k.mu.Unlock()
	done := make(chan FireResult, 1)
	go func() { done <- k.Fire("sup/bound", 3, 0, 0) }()
	select {
	case res := <-done:
		if !res.FellBack || res.Verdict != -7 || fmt.Sprint(res.Emissions) != "[3]" {
			t.Fatalf("fallback fire under a held kernel lock: %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fallback fire blocked on the kernel lock")
	}
}
