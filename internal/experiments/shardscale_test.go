package experiments

import (
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
	// scheduler noise but fail on collapse.
	if res.Throughput[8] < 0.8*res.Throughput[1] {
		t.Errorf("throughput collapses under 8 goroutines: %.0f vs %.0f fires/s",
			res.Throughput[8], res.Throughput[1])
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
