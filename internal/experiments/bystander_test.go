package experiments

import (
	"fmt"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/memsim"
	"rmtk/internal/table"
)

// firingBeside wraps a prefetcher so that every page access also fires the
// hot-path hook: a pure, cached datapath sharing the kernel with one that is
// learning online.
type firingBeside struct {
	memsim.Prefetcher
	k           *core.Kernel
	n           int64
	fires, hits int64
}

func (b *firingBeside) OnAccess(pid, page int64, hit bool) []int64 {
	for i := 0; i < 2; i++ {
		key := b.n % 16
		b.n++
		b.fires++
		if b.k.Fire(HotPathHook, key, key&7, 3).CacheHit {
			b.hits++
		}
	}
	return b.Prefetcher.OnAccess(pid, page, hit)
}

// TestLearningLeavesTheBystanderCached is the paper's regime as a test: the
// prefetch datapath admits a process (RegisterModel, LoadProgram, two
// AddEntry) and then retrains and pushes its tree every 512 accesses (§4),
// while another hook of the same kernel serves repeating flows from the
// verdict cache. None of those commits can change a verdict of the bystander,
// so none may cost it one: its invalidations stay at zero and it hits on all
// but its warm-up fires, and the prefetcher learns exactly what it learns
// alone. (On a kernel with one generation per tenant every push flushed the
// bystander: the same run read one invalidation per flow per commit.)
func TestLearningLeavesTheBystanderCached(t *testing.T) {
	trace := VideoTrace(5)[:6000]
	run := func(beside bool) (memsim.Result, *firingBeside, int) {
		rmt, k, err := NewRMTPrefetcher(core.ModeJIT)
		if err != nil {
			t.Fatal(err)
		}
		b := &firingBeside{Prefetcher: rmt, k: k}
		var pol memsim.Prefetcher = rmt
		if beside {
			if err := InstallHotPath(k); err != nil {
				t.Fatal(err)
			}
			pol = b
		}
		return memsim.Run(VideoMemConfig(), pol, trace), b, rmt.Trains(56)
	}
	alone, _, _ := run(false)
	with, b, trains := run(true)

	if trains < 8 {
		t.Fatalf("the prefetcher retrained %d times; the scenario needs at least 8 pushes", trains)
	}
	if with.Accuracy() != alone.Accuracy() || with.Coverage() != alone.Coverage() || with.ClockNs != alone.ClockNs {
		t.Errorf("the bystander changed what the prefetcher learned: %v beside it, %v alone", with, alone)
	}
	st := b.k.VerdictCacheStats()
	if st.Invalidations != 0 {
		t.Errorf("%d of the bystander's cached verdicts were invalidated by %d model pushes that could not change them", st.Invalidations, trains)
	}
	// 16 flows, two warm-up misses each (second-touch admission; the learning
	// hooks' never-stored fires share the doorkeeper and can cost one more).
	if float64(b.hits) < 0.99*float64(b.fires) {
		t.Errorf("bystander hit %d of %d fires", b.hits, b.fires)
	}
}

// TestTenantChurnLeavesNeighboursCached: tenant A reconfigures itself without
// pause — entries, a new table on another of its hooks, programs, model
// pushes — while tenant B and a default-tenant hook serve repeating flows.
// Neither loses a cached verdict, and the admin view of B's hook, which does
// share a snapshot with A's resources, loses none either.
func TestTenantChurnLeavesNeighboursCached(t *testing.T) {
	k, err := NewHotPathKernel(core.ModeJIT, true)
	if err != nil {
		t.Fatal(err)
	}
	constProg := func(name, hook string, c int64) *isa.Program {
		return &isa.Program{Name: name, Hook: hook, Insns: isa.MustAssemble(fmt.Sprintf(`
        mov    r0, r1
        addimm r0, %d
        exit`, c))}
	}
	tabs := map[string]*table.Table{}
	for _, tn := range []string{"a", "b"} {
		if err := k.RegisterTenant(tn, core.TenantQuota{}); err != nil {
			t.Fatal(err)
		}
		id, _, err := k.InstallProgram(constProg(tn+":p", tn+":h", 10))
		if err != nil {
			t.Fatal(err)
		}
		tb := table.New(tn+":tab", tn+":h", table.MatchExact)
		if _, err := k.CreateTable(tb); err != nil {
			t.Fatal(err)
		}
		for key := uint64(0); key < 8; key++ {
			if err := tb.Insert(&table.Entry{Key: key, Action: table.Action{Kind: table.ActionProgram, ProgID: id}}); err != nil {
				t.Fatal(err)
			}
		}
		tabs[tn] = tb
	}
	modelA, err := k.RegisterModelOwned("a", &core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1})
	if err != nil {
		t.Fatal(err)
	}

	var fires, hits int64
	serve := func() {
		for key := int64(0); key < 8; key++ {
			rb, err := k.FireTenant("b", "h", key, 0, 0)
			if err != nil || rb.Verdict != key+10 {
				t.Fatalf("tenant b, key %d: %+v, %v", key, rb, err)
			}
			for _, res := range []core.FireResult{rb, k.Fire("b:h", key, 0, 0), k.Fire(HotPathHook, key, key&7, 3)} {
				fires++
				if res.CacheHit {
					hits++
				}
			}
		}
	}
	for i := 0; i < 3; i++ {
		serve() // fingerprint, store, first replay
	}
	warm := fires - hits
	for i := 0; i < 200; i++ {
		switch i % 5 {
		case 0:
			tabs["a"].UpdateAction(uint64(i)%8, table.Action{Kind: table.ActionParam, Param: int64(i)})
		case 1:
			if err := k.SwapModel(modelA, &core.FuncModel{Fn: func([]int64) int64 { return int64(i) }, Feats: 1}); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, _, err := k.InstallProgram(constProg(fmt.Sprintf("a:v%d", i), "a:h", int64(i))); err != nil {
				t.Fatal(err)
			}
		case 3:
			if _, err := k.CreateTable(table.New(fmt.Sprintf("a:extra%d", i), "a:other", table.MatchExact)); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tabs["a"].Insert(&table.Entry{Key: uint64(100 + i), Action: table.Action{Kind: table.ActionParam, Param: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		serve()
	}
	if fires-hits != warm {
		t.Errorf("tenant a's churn cost its neighbours %d cache misses", fires-hits-warm)
	}
	for _, tn := range []string{"", "b"} {
		st, err := k.TenantStatus(tn)
		if err != nil {
			t.Fatal(err)
		}
		if st.VerdictCache.Invalidations != 0 || st.Invalidated != (core.StaleCounts{}) {
			t.Errorf("tenant %q: %d invalidations (%+v) from a neighbour's commits", tn, st.VerdictCache.Invalidations, st.Invalidated)
		}
	}
}
