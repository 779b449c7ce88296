package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d", c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d", c.Load())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1106 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if m := h.Mean(); m < 184 || m > 185 {
		t.Fatalf("mean = %v", m)
	}
	// p100 upper bound must cover the max.
	if q := h.Quantile(1.0); q < 1000 {
		t.Fatalf("p100 = %d", q)
	}
	// p0 is the smallest bucket edge.
	if q := h.Quantile(0); q > 1 {
		t.Fatalf("p0 = %d", q)
	}
	var empty Histogram
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 {
		t.Fatal("negative observation dropped")
	}
}

func TestQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	prev := int64(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: %d < %d", v, prev)
		}
		prev = v
	}
	// The p50 upper bound should be within a power of two of 500.
	if p50 := h.Quantile(0.5); p50 < 500 || p50 > 1024 {
		t.Fatalf("p50 = %d", p50)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	r.Histogram("h").Observe(7)
	if r.Counter("a").Load() != 2 {
		t.Fatal("counter identity lost")
	}
	snap := strings.Join(r.Snapshot(), "\n")
	if !strings.Contains(snap, "a 2") || !strings.Contains(snap, "h count=1") {
		t.Fatalf("snapshot:\n%s", snap)
	}
}

// TestBindKeepsSnapshotIdentical: a counter resolved once with Bind shows in
// the snapshot exactly when per-event Counter(name).Inc() calls would have
// created it — not before the first event, from then on always, and as a zero
// once somebody asks for it by name — and is the counter Counter returns.
func TestBindKeepsSnapshotIdentical(t *testing.T) {
	r := NewRegistry()
	traps, asked := r.Bind("traps"), r.Bind("asked")
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("bound counters listed before any event: %v", snap)
	}
	traps.Inc()
	if got := r.Counter("asked").Load(); got != 0 || r.Counter("asked") != asked || r.Bind("traps") != traps {
		t.Fatalf("Bind and Counter disagree on identity (asked = %d)", got)
	}
	if snap := strings.Join(r.Snapshot(), "|"); snap != "asked 0|traps 1" {
		t.Fatalf("snapshot = %q, want %q", snap, "asked 0|traps 1")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("x").Inc()
				r.Histogram("y").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if r.Counter("x").Load() != 1600 {
		t.Fatalf("x = %d", r.Counter("x").Load())
	}
}
