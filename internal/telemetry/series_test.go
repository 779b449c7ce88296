package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSeriesVecBounded is the regression test for the labeled-series leak:
// label cardinality beyond capacity must evict, never grow.
func TestSeriesVecBounded(t *testing.T) {
	r := NewRegistry()
	v := r.SeriesVec("core.tenant.fires", 3)
	for i := 0; i < 10; i++ {
		v.Counter(fmt.Sprintf("tenant%d", i)).Add(int64(i + 1))
	}
	if v.Len() != 3 {
		t.Fatalf("vec holds %d series, want 3", v.Len())
	}
	if v.evictions != 7 {
		t.Fatalf("evictions = %d, want 7", v.evictions)
	}
	// LRU order: the last three touched labels survive.
	for _, label := range []string{"tenant7", "tenant8", "tenant9"} {
		found := false
		for _, line := range r.Snapshot() {
			if strings.HasPrefix(line, "core.tenant.fires{"+label+"}") {
				found = true
			}
		}
		if !found {
			t.Fatalf("hot series %s evicted", label)
		}
	}
}

func TestSeriesVecLRUTouch(t *testing.T) {
	r := NewRegistry()
	v := r.SeriesVec("m", 2)
	a := v.Counter("a")
	a.Add(5)
	v.Counter("b")
	v.Counter("a") // touch: a becomes most-recent
	v.Counter("c") // evicts b, not a
	if got := v.Counter("a"); got != a || got.Load() != 5 {
		t.Fatalf("touched series lost state: %d", got.Load())
	}
	if v.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", v.evictions)
	}
	// b comes back fresh: dropped counts are not resurrected.
	if got := v.Counter("b").Load(); got != 0 {
		t.Fatalf("evicted series kept count %d", got)
	}
}

func TestSeriesVecForget(t *testing.T) {
	v := NewRegistry().SeriesVec("m", 4)
	v.Counter("gone").Inc()
	v.Forget("gone")
	if v.Len() != 0 || v.evictions != 0 {
		t.Fatalf("forget: len=%d evictions=%d, want 0/0", v.Len(), v.evictions)
	}
}

func TestSeriesVecSnapshot(t *testing.T) {
	r := NewRegistry()
	r.SeriesVec("core.tenant.shed", 8).Counter("alpha").Add(3)
	var got []string
	for _, line := range r.Snapshot() {
		if strings.HasPrefix(line, "core.tenant.shed") {
			got = append(got, line)
		}
	}
	want := []string{"core.tenant.shed.evictions 0", "core.tenant.shed{alpha} 3"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("snapshot lines = %q, want %q", got, want)
	}
}

func TestSeriesVecConcurrent(t *testing.T) {
	v := NewRegistry().SeriesVec("m", 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.Counter(fmt.Sprintf("t%d", (g+i)%6)).Inc()
			}
		}(g)
	}
	wg.Wait()
	if v.Len() > 4 {
		t.Fatalf("vec grew to %d series under concurrency", v.Len())
	}
}
