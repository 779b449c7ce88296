package core

import (
	"strings"
	"testing"

	"rmtk/internal/aot"
	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/vm"
)

// This file pins the verdict cache's second-touch admission rule: a flow's
// first replayable miss leaves a fingerprint, its second stores, its third
// replays — and everything that makes a fire non-replayable is decided before
// the doorkeeper is consulted.

const admitHook = "test/admit"

// newAdmitKernel builds the full stack the benchmark's fire workloads run —
// ModeAOT, verdict cache on, supervisor and sentinel attached — around one
// pure program (verdict = key + arg2 + arg3) behind an exact table with keys
// 0..15. The AOT function is registered by hand under the program's
// admission-time hash, so the AOT tier is what fires.
func newAdmitKernel(t *testing.T) (*Kernel, *Sentinel) {
	t.Helper()
	prog := func() *isa.Program {
		return &isa.Program{Name: "admit_sum", Hook: admitHook,
			Insns: isa.MustAssemble("mov r0, r1\nadd r0, r2\nadd r0, r3\nexit")}
	}
	scratch := NewKernel(Config{})
	install(t, scratch, prog())
	aot.Register(statusOf(t, scratch, "admit_sum").Hash, "admit_sum_aot",
		func(_ vm.Env, _ *aot.Scratch, r1, r2, r3 int64) (int64, int64, error) {
			return r1 + r2 + r3, 4, nil
		})

	k := NewKernel(Config{Mode: ModeAOT})
	pid, rep, err := k.InstallProgram(prog())
	if err != nil || !rep.Pure {
		t.Fatalf("install: pure=%v err=%v", rep.Pure, err)
	}
	tb := table.New("admit_tab", admitHook, table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 16; key++ {
		if err := tb.Insert(&table.Entry{Key: key, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
			t.Fatal(err)
		}
	}
	k.Supervise(SupervisorConfig{})
	return k, k.AttachSentinel(SentinelConfig{SampleEvery: 64})
}

// TestOneShotFlowsAreNeverStored: flows that never recur leave nothing in the
// verdict cache — no entry, no eviction, no allocation — only declines.
func TestOneShotFlowsAreNeverStored(t *testing.T) {
	const n = 10000
	k, sen := newAdmitKernel(t)
	for i := int64(0); i < n; i++ {
		key := i % 16
		if res := k.Fire(admitHook, key, 1, i); res.CacheHit || res.Verdict != key+1+i {
			t.Fatalf("one-shot fire %d = %+v", i, res)
		}
	}
	// The fires the sentinel sampled are not replayable and never reach the
	// doorkeeper; every other one is a first touch.
	sampled := sen.Counts().Sampled
	st := k.VerdictCacheStats()
	if st.Entries != 0 || st.Evictions != 0 || st.Misses != n || sampled == 0 || st.Declined != n-sampled {
		t.Fatalf("stats after %d one-shot flows (%d sampled) = %+v; want no entries, no evictions, every unsampled fire declined", n, sampled, st)
	}
	next := int64(n)
	if allocs := testing.AllocsPerRun(1000, func() {
		k.Fire(admitHook, next%16, 1, next)
		next++
	}); allocs != 0 {
		t.Fatalf("one-shot fire allocates %.1f objects; want 0", allocs)
	}
	if s := statusOf(t, k, "admit_sum"); s.Tier != TierAOT {
		t.Fatalf("tier = %s, want the fires above to have run on aot", s.Tier)
	}
}

// TestCachedFireAndDeclinedMissAllocateNothing: the verdict cache's two
// lock-free outcomes — a hit replayed from an entry, a first-touch miss the
// doorkeeper declines — allocate nothing on the full stack (supervisor and
// sentinel attached). table.TestGetTakesNoShardLock pins that neither waits
// for a shard lock.
func TestCachedFireAndDeclinedMissAllocateNothing(t *testing.T) {
	k, _ := newAdmitKernel(t)
	for i := 0; i < 3*16; i++ { // decline, store, replay: every key is cached
		k.Fire(admitHook, int64(i%16), 1, 0)
	}
	var key int64
	if allocs := testing.AllocsPerRun(1000, func() {
		if res := k.Fire(admitHook, key%16, 1, 0); !res.CacheHit || res.Verdict != key%16+1 {
			t.Errorf("fire of a cached flow = %+v", res)
		}
		key++
	}); allocs != 0 {
		t.Errorf("a cached fire allocates %.1f objects, want 0", allocs)
	}
	declined := k.VerdictCacheStats().Declined
	novel := int64(1 << 20)
	if allocs := testing.AllocsPerRun(1000, func() {
		k.Fire(admitHook, novel%16, 1, novel)
		novel++
	}); allocs != 0 {
		t.Errorf("a declined miss allocates %.1f objects, want 0", allocs)
	}
	if st := k.VerdictCacheStats(); st.Declined == declined || st.Entries != 16 {
		t.Errorf("stats = %+v; want the novel flows declined (was %d) and only the 16 cached flows stored", st, declined)
	}
}

// TestDispatchDrawsScratchOnce: a dispatch draws one pooled scratch, on the
// first event that leaves the cached-hit path, and holds it to its end —
// across hooks, engine runs and the sentinel's checked pairs — while a
// dispatch that never leaves that path draws none.
func TestDispatchDrawsScratchOnce(t *testing.T) {
	k, sen := newAdmitKernel(t)
	tb2 := table.New("admit_tab2", admitHook+"2", table.MatchExact)
	if _, err := k.CreateTable(tb2); err != nil {
		t.Fatal(err)
	}
	pid, err := k.ProgramID("admit_sum")
	if err != nil {
		t.Fatal(err)
	}
	tb2.SetDefault(&table.Action{Kind: table.ActionProgram, ProgID: pid})

	news := 0
	k.pool.setNew(func() *scratch { news++; return new(scratch) })
	var held []*scratch
	drain := func() { // empties the pool: draws until it has to make one
		for n := news; news == n; {
			held = append(held, k.pool.get())
		}
	}

	const n = 64
	events, out := make([]Event, n), make([]FireResult, n)
	for i := range events { // arg3 makes every flow new: all miss
		events[i] = Event{Hook: []string{admitHook, admitHook + "2"}[i%2], Key: int64(i % 16), Arg3: int64(1000 + i)}
	}
	// Were the scratch returned between events, this would take it and the
	// next event would have to make another.
	events[n/2].Prep = drain
	drain()
	news = 0
	k.FireBatch(events, out)
	for i, res := range out {
		if res.CacheHit || res.Verdict != int64(i%16+1000+i) {
			t.Fatalf("event %d = %+v", i, res)
		}
	}
	if news != 2 {
		t.Errorf("an uncached batch made %d scratches, want 2: its own one and the one the mid-batch drain made", news)
	}
	if sen.Counts().Sampled == 0 {
		t.Error("the batch was meant to include a sampled pair")
	}

	for i := 0; i < 3; i++ { // decline, store, replay
		k.FireBatch(events[:16], out)
	}
	drain()
	news = 0
	k.FireBatch(events[:16], out)
	for i, res := range out[:16] {
		if !res.CacheHit {
			t.Fatalf("cached event %d = %+v", i, res)
		}
	}
	k.Fire("no/such/hook", 1, 0, 0)
	if news != 0 {
		t.Errorf("a cached batch and a fire that hits no hook made %d scratches, want 0", news)
	}
}

// TestReadmissionAfterCommitTakesOneMiss: admission is generation-agnostic. A
// flow cached under one generation is stored again on its first miss under
// the next; only a flow's first sighting ever pays the extra miss. The commit
// rewrites the flow's own entry (to the same action): an edit of another key
// would leave the verdict cached.
func TestReadmissionAfterCommitTakesOneMiss(t *testing.T) {
	k, _, progID, tb := newHotPathTestKernel(t, 4)
	fire := func() FireResult { return k.Fire(hpTestHook, 1, 2, 0) }
	for i, wantHit := range []bool{false, false, true} {
		if res := fire(); res.CacheHit != wantHit || res.Verdict != 12 {
			t.Fatalf("fire %d: %+v, want CacheHit=%v", i+1, res, wantHit)
		}
	}
	if !tb.UpdateAction(1, table.Action{Kind: table.ActionProgram, ProgID: progID}) {
		t.Fatal("key 1 has no entry")
	}
	if res := fire(); res.CacheHit {
		t.Fatalf("table mutation did not invalidate: %+v", res)
	}
	if res := fire(); !res.CacheHit || res.Verdict != 12 {
		t.Fatalf("re-admission needed a second miss: %+v", res)
	}
	if st := k.VerdictCacheStats(); st.Declined != 1 {
		t.Fatalf("declined = %d, want 1 (the flow's first sighting only)", st.Declined)
	}
}

// TestTenantsDoNotAdmitEachOthersFlows: every tenant (and the admin view,
// whose FlowKey for a tenant hook is the tenant's own) keeps its own
// doorkeeper, so one tenant's first touch is never another's second.
func TestTenantsDoNotAdmitEachOthersFlows(t *testing.T) {
	k := NewKernel(Config{})
	for _, tn := range []string{"alpha", "beta"} {
		if err := k.RegisterTenant(tn, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
		addTenantTable(t, k, tn, "tab", "h", 1, 100)
	}
	if _, err := k.FireTenant("alpha", "h", 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if res, err := k.FireTenant("beta", "h", 1, 0, 0); err != nil || res.CacheHit {
		t.Fatalf("beta first fire = %+v err %v", res, err)
	}
	k.Fire("alpha:h", 1, 0, 0)
	for _, tn := range []string{"alpha", "beta"} {
		st, err := k.TenantVerdictCacheStats(tn)
		if err != nil || st.Declined != 1 || st.Entries != 0 {
			t.Fatalf("%s after one fire: %+v err %v; want 1 declined, nothing stored", tn, st, err)
		}
	}
	if st := k.VerdictCacheStats(); st.Declined != 1 || st.Entries != 0 {
		t.Fatalf("admin view after one fire: %+v; want 1 declined, nothing stored", st)
	}
	// Each view's own second touch stores, its third replays.
	if res, _ := k.FireTenant("beta", "h", 1, 0, 0); res.CacheHit {
		t.Fatalf("beta second fire replayed: %+v", res)
	}
	if res, _ := k.FireTenant("beta", "h", 1, 0, 0); !res.CacheHit {
		t.Fatalf("beta third fire not replayed: %+v", res)
	}

	// The declines are visible to an operator, summed and per tenant.
	var line string
	for _, l := range k.Metrics.Snapshot() {
		if strings.HasPrefix(l, "core.verdict_cache.declined ") {
			line = l
		}
	}
	if line != "core.verdict_cache.declined 3" {
		t.Fatalf("snapshot line = %q, want the three first touches summed", line)
	}
	if st, err := k.TenantStatus("alpha"); err != nil || st.VerdictCache.Declined != 1 {
		t.Fatalf("alpha tenant status = %+v err %v, want 1 declined", st.VerdictCache, err)
	}
}

// TestNonReplayableFiresLeaveNoFingerprint: a fire that could not have been
// cached is not a touch. After each kind of non-replayable fire the entry is
// made replayable, and the same key must still need two misses.
func TestNonReplayableFiresLeaveNoFingerprint(t *testing.T) {
	const hook = "test/noreplay"
	param := table.Action{Kind: table.ActionParam, Param: 7}
	cases := []struct {
		name string
		// arm makes key 1's fire non-replayable; disarm undoes it.
		arm, disarm func(t *testing.T, k *Kernel, tb *table.Table)
	}{
		{
			name: "emitting program",
			arm: func(t *testing.T, k *Kernel, tb *table.Table) {
				pid := install(t, k, &isa.Program{Name: "emits", Hook: hook,
					Insns:   isa.MustAssemble("movimm r1, 100\ncall 1\nmovimm r0, 0\nexit"),
					Helpers: []int64{HelperEmit}})
				tb.UpdateAction(1, table.Action{Kind: table.ActionProgram, ProgID: pid})
			},
			disarm: func(t *testing.T, k *Kernel, tb *table.Table) { tb.UpdateAction(1, param) },
		},
		{
			name: "collect action",
			arm: func(t *testing.T, k *Kernel, tb *table.Table) {
				tb.UpdateAction(1, table.Action{Kind: table.ActionCollect})
			},
			disarm: func(t *testing.T, k *Kernel, tb *table.Table) { tb.UpdateAction(1, param) },
		},
		{
			name: "injector attached",
			arm: func(t *testing.T, k *Kernel, tb *table.Table) {
				k.SetFaultInjector(fault.NewInjector(1))
			},
			disarm: func(t *testing.T, k *Kernel, tb *table.Table) { k.SetFaultInjector(nil) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(Config{})
			tb := table.New("noreplay_tab", hook, table.MatchExact)
			if _, err := k.CreateTable(tb); err != nil {
				t.Fatal(err)
			}
			if err := tb.Insert(&table.Entry{Key: 1, Action: param}); err != nil {
				t.Fatal(err)
			}
			tc.arm(t, k, tb)
			for i := 0; i < 3; i++ {
				if res := k.Fire(hook, 1, 0, 0); res.CacheHit {
					t.Fatalf("non-replayable fire %d replayed: %+v", i+1, res)
				}
			}
			if st := k.VerdictCacheStats(); st.Declined != 0 || st.Entries != 0 {
				t.Fatalf("non-replayable fires reached the doorkeeper: %+v", st)
			}
			tc.disarm(t, k, tb)
			for i, wantHit := range []bool{false, false, true} {
				if res := k.Fire(hook, 1, 0, 0); res.CacheHit != wantHit || res.Verdict != 7 {
					t.Fatalf("replayable fire %d: %+v, want CacheHit=%v", i+1, res, wantHit)
				}
			}
		})
	}
}
