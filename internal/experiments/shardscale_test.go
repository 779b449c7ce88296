package experiments

import (
	"slices"
	"testing"

	"rmtk/internal/core"
)

// TestShardScale checks the experiment's claims with thresholds lenient
// enough for CI machines (including single-core containers, where parallel
// speedup is impossible but throughput must at least not collapse).
func TestShardScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, lines, err := ShardScale(core.ModeJIT)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		t.Log(l)
	}
	if s := res.Speedup(); s < 1.5 {
		t.Errorf("cached-fire speedup = %.2fx, want >= 1.5x", s)
	}
	for _, g := range []int{1, 2, 4, 8} {
		if res.Throughput[g] <= 0 {
			t.Fatalf("no throughput measured at %d goroutines", g)
		}
	}
	// Sharding must not make contention worse than a single firer: allow
	// scheduler noise but fail on collapse. One reading of each arm flakes
	// when other packages' tests load the machine, so the 1- and 8-goroutine
	// arms alternate over several rounds and their medians are compared.
	const rounds = 7
	var one, eight []float64
	for r := 0; r < rounds; r++ {
		for _, g := range []int{1, 8} {
			tp, err := throughputAt(core.ModeJIT, g, 2000, 64)
			if err != nil {
				t.Fatal(err)
			}
			if g == 1 {
				one = append(one, tp)
			} else {
				eight = append(eight, tp)
			}
		}
	}
	slices.Sort(one)
	slices.Sort(eight)
	if m1, m8 := one[rounds/2], eight[rounds/2]; m8 < 0.8*m1 {
		t.Errorf("throughput collapses under 8 goroutines: median %.0f vs %.0f fires/s over %d rounds (1: %.0f, 8: %.0f)",
			m8, m1, rounds, one, eight)
	}
}

// TestNewHotPathKernel asserts the shared bench fixture is cacheable end to
// end: the workload program is certified pure and a repeated fire replays
// from the verdict cache (from the third fire: the first leaves a
// fingerprint, the second stores).
func TestNewHotPathKernel(t *testing.T) {
	k, err := NewHotPathKernel(core.ModeInterp, true)
	if err != nil {
		t.Fatal(err)
	}
	first := k.Fire(HotPathHook, 7, 7&7, 3)
	if first.Matched == 0 || first.Trapped {
		t.Fatalf("fixture fire failed: %+v", first)
	}
	if second := k.Fire(HotPathHook, 7, 7&7, 3); second.CacheHit {
		t.Fatalf("fixture fire stored on its first touch: %+v", second)
	}
	third := k.Fire(HotPathHook, 7, 7&7, 3)
	if !third.CacheHit || third.Verdict != first.Verdict {
		t.Fatalf("fixture fire not memoized: first %+v, third %+v", first, third)
	}

	ku, err := NewHotPathKernel(core.ModeInterp, false)
	if err != nil {
		t.Fatal(err)
	}
	ku.Fire(HotPathHook, 7, 7&7, 3)
	if res := ku.Fire(HotPathHook, 7, 7&7, 3); res.CacheHit {
		t.Fatalf("uncached fixture replayed from cache: %+v", res)
	}
}
