package schedsim

import (
	"testing"
)

func uniform(n int, work int64) *Workload {
	phase := make([]TaskSpec, n)
	for i := range phase {
		phase[i] = TaskSpec{Work: work}
	}
	return &Workload{Name: "uniform", Phases: [][]TaskSpec{phase}}
}

// skewed builds a workload whose task sizes vary widely, so queues drain
// unevenly and the balancer has real decisions to make.
func skewed(n int) *Workload {
	phase := make([]TaskSpec, n)
	for i := range phase {
		phase[i] = TaskSpec{Work: int64(40 + 60*i), SpawnOffset: int64(i % 3)}
	}
	return &Workload{Name: "skewed", Phases: [][]TaskSpec{phase}}
}

func TestAllTasksFinish(t *testing.T) {
	wl := uniform(20, 50)
	r := Run(Config{CPUs: 4}, wl, CFSDecider{})
	if r.Tasks != 20 {
		t.Fatalf("finished %d/20 tasks", r.Tasks)
	}
	if r.Ticks >= 10_000_000 {
		t.Fatal("hit MaxTicks")
	}
}

func TestWorkConservation(t *testing.T) {
	// Makespan is bounded below by total work / CPUs and above by
	// total work (serial execution).
	wl := uniform(16, 100)
	r := Run(Config{CPUs: 4}, wl, CFSDecider{})
	var total int64
	for _, ph := range wl.Phases {
		for _, task := range ph {
			total += task.Work
		}
	}
	if r.Ticks < total/4 {
		t.Fatalf("makespan %d below work bound %d", r.Ticks, total/4)
	}
	if r.Ticks > total {
		t.Fatalf("makespan %d above serial bound %d", r.Ticks, total)
	}
	// With uniform tasks on an idle system the makespan should be close
	// to optimal (within the balancing slack + cache refill costs).
	if r.Ticks > total/4*2 {
		t.Fatalf("makespan %d far from optimal %d", r.Ticks, total/4)
	}
}

func TestDeterminism(t *testing.T) {
	wl := uniform(12, 80)
	a := Run(Config{CPUs: 4, Seed: 9}, wl, CFSDecider{})
	b := Run(Config{CPUs: 4, Seed: 9}, wl, CFSDecider{})
	if a.Ticks != b.Ticks || a.Migrations != b.Migrations || a.Decisions != b.Decisions {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestPhaseBarrier(t *testing.T) {
	wl := &Workload{Name: "phased", Phases: [][]TaskSpec{
		{{Work: 100}},
		{{Work: 10}, {Work: 10}},
	}}
	r := Run(Config{CPUs: 2}, wl, CFSDecider{})
	// Phase 2 cannot overlap phase 1: makespan >= 100 + 10.
	if r.Ticks < 110 {
		t.Fatalf("barrier violated: makespan %d", r.Ticks)
	}
	if r.Tasks != 3 {
		t.Fatalf("tasks = %d", r.Tasks)
	}
}

func TestSpawnOffsets(t *testing.T) {
	wl := &Workload{Name: "late", Phases: [][]TaskSpec{{
		{Work: 10},
		{Work: 10, SpawnOffset: 500},
	}}}
	r := Run(Config{CPUs: 2}, wl, CFSDecider{})
	if r.Ticks < 510 {
		t.Fatalf("late spawn ignored: makespan %d", r.Ticks)
	}
}

func TestSleepingTasks(t *testing.T) {
	wl := &Workload{Name: "io", Phases: [][]TaskSpec{{
		{Work: 40, SleepEvery: 10, SleepTicks: 5},
	}}}
	r := Run(Config{CPUs: 1}, wl, CFSDecider{})
	// 40 run ticks + 3 sleeps * 5 = at least 55.
	if r.Ticks < 55 {
		t.Fatalf("sleeps not simulated: makespan %d", r.Ticks)
	}
}

func TestNeverMigrateIsWorseOnImbalance(t *testing.T) {
	// Heavy skew: all work lands on few CPUs at spawn; without migration
	// the makespan suffers.
	var phase []TaskSpec
	for i := 0; i < 4; i++ {
		phase = append(phase, TaskSpec{Work: 400})
	}
	// Stagger spawn so wake balancing piles them onto busy CPUs while
	// others are still empty of queued work.
	for i := range phase {
		phase[i].SpawnOffset = int64(i)
	}
	wl := &Workload{Name: "skew", Phases: [][]TaskSpec{phase}}
	never := Run(Config{CPUs: 8, Seed: 1}, wl, NeverDecider{})
	cfs := Run(Config{CPUs: 8, Seed: 1}, wl, CFSDecider{})
	if never.Ticks < cfs.Ticks {
		t.Fatalf("never-migrate (%d) beat CFS (%d)", never.Ticks, cfs.Ticks)
	}
}

func TestAlwaysMigrateThrashes(t *testing.T) {
	wl := skewed(32)
	// Expensive cache refills make locality-blind migration visibly bad;
	// CFS refuses cache-hot moves and is largely unaffected.
	cfg := Config{CPUs: 8, Seed: 1, CacheRefillTicks: 20}
	always := Run(cfg, wl, AlwaysDecider{})
	cfs := Run(cfg, wl, CFSDecider{})
	if always.Migrations <= cfs.Migrations {
		t.Fatalf("always-migrate moved %d <= cfs %d", always.Migrations, cfs.Migrations)
	}
	// Cache refill penalties make thrashing at least as slow.
	if always.Ticks < cfs.Ticks {
		t.Fatalf("always-migrate (%d) beat CFS (%d)", always.Ticks, cfs.Ticks)
	}
}

func TestDecisionCollection(t *testing.T) {
	wl := skewed(32)
	r := Run(Config{CPUs: 4, CollectDecisions: true}, wl, CFSDecider{})
	if r.Decisions == 0 {
		t.Fatal("no decisions consulted")
	}
	if int64(len(r.Log)) != r.Decisions {
		t.Fatalf("log %d != decisions %d", len(r.Log), r.Decisions)
	}
	for _, d := range r.Log {
		if len(d.X) != NumFeatures {
			t.Fatalf("feature vector width %d", len(d.X))
		}
		if d.Y != 0 && d.Y != 1 {
			t.Fatalf("label %d", d.Y)
		}
	}
	// Labels must match the heuristic re-applied to the features.
	for _, d := range r.Log {
		var f Features
		copy(f.V[:], d.X)
		want := int64(0)
		if (CFSDecider{}).CanMigrate(&f) {
			want = 1
		}
		if d.Y != want {
			t.Fatalf("label mismatch: %v -> %d, heuristic says %d", d.X, d.Y, want)
		}
	}
}

func TestMeanTaskJCT(t *testing.T) {
	wl := uniform(4, 50)
	r := Run(Config{CPUs: 4}, wl, CFSDecider{})
	if r.MeanTaskJCT() <= 0 {
		t.Fatalf("mean JCT = %v", r.MeanTaskJCT())
	}
	if (Result{}).MeanTaskJCT() != 0 {
		t.Fatal("empty result mean JCT")
	}
}

func TestJCTSeconds(t *testing.T) {
	r := Result{Ticks: 1500}
	if got := r.JCTSeconds(1e6); got != 1.5 {
		t.Fatalf("JCTSeconds = %v", got)
	}
}
