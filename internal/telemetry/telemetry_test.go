package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
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

// oldHistogram is the histogram as it was while Observe kept a separate
// observation count and found the bucket with a shift loop, kept verbatim as
// the reference for the two tests below.
type oldHistogram struct {
	buckets [48]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func oldBucketFor(v int64) int {
	if v < 0 {
		v = 0
	}
	b := 0
	for v > 0 && b < 47 {
		v >>= 1
		b++
	}
	return b
}

func (h *oldHistogram) Observe(v int64) {
	h.buckets[oldBucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

func (h *oldHistogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

func (h *oldHistogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen int64
	for b := 0; b < len(h.buckets); b++ {
		seen += h.buckets[b].Load()
		if seen > target {
			if b == 0 {
				return 0
			}
			return int64(1) << uint(b)
		}
	}
	return int64(1) << 47
}

func (h *oldHistogram) line(name string) string {
	return fmt.Sprintf("%s count=%d mean=%.1f p99<=%d", name, h.count.Load(), h.Mean(), h.Quantile(0.99))
}

// TestBucketForMatchesShiftLoop: the bit-length form names the bucket the
// shift loop named on both sides of every power of two, at the extremes and
// for negatives.
func TestBucketForMatchesShiftLoop(t *testing.T) {
	vals := []int64{0, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for s := uint(0); s < 63; s++ {
		p := int64(1) << s
		vals = append(vals, p-1, p, p+1, -p-1, -p, -p+1)
	}
	for _, v := range vals {
		if got, want := bucketFor(v), oldBucketFor(v); got != want {
			t.Errorf("bucketFor(%d) = %d, the shift loop says %d", v, got, want)
		}
	}
}

// TestHistogramOutputUnchangedWithoutCount: a histogram that derives its
// count from the buckets renders what one that stored it rendered, byte for
// byte, plain and sharded, over 10^5 seeded observations (compared at
// intervals and at the end).
func TestHistogramOutputUnchangedWithoutCount(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	reg := NewRegistry()
	plain, sharded := reg.Histogram("h"), NewShardedHistogram(4)
	reg.AddSource(func() []string { return []string{sharded.SnapshotLine("s")} })
	var old oldHistogram
	for i := 0; i < 100000; i++ {
		// Magnitudes spread over every bucket, a few negatives among them.
		v := rng.Int63() >> uint(rng.Intn(64))
		if rng.Intn(50) == 0 {
			v = -v
		}
		plain.Observe(v)
		sharded.Observe(i, v)
		old.Observe(v)
		if i%9973 != 0 && i != 99999 {
			continue
		}
		if got, want := strings.Join(reg.Snapshot(), "|"), old.line("h")+"|"+old.line("s"); got != want {
			t.Fatalf("after %d observations Snapshot = %q, with a stored count %q", i+1, got, want)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.999, 1} {
			if g, s, w := plain.Quantile(q), sharded.Quantile(q), old.Quantile(q); g != w || s != w {
				t.Fatalf("after %d observations Quantile(%v) = %d plain, %d sharded, want %d", i+1, q, g, s, w)
			}
		}
	}
	if plain.Count() != 100000 || sharded.Count() != 100000 || plain.Sum() != old.sum.Load() || sharded.Sum() != old.sum.Load() {
		t.Fatalf("count/sum = %d/%d plain, %d/%d sharded; want 100000/%d", plain.Count(), plain.Sum(), sharded.Count(), sharded.Sum(), old.sum.Load())
	}
}

// TestObserveNIsNObservations: a run of n equal values published at once reads
// back — count, sum, mean and every quantile, plain and sharded — exactly as
// n single observations do.
func TestObserveNIsNObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var one, bulk Histogram
	ones, bulks := NewShardedHistogram(4), NewShardedHistogram(4)
	for i := 0; i < 2000; i++ {
		v, n := rng.Int63()>>uint(rng.Intn(64)), int64(1+rng.Intn(100))
		for j := int64(0); j < n; j++ {
			one.Observe(v)
			ones.Observe(i, v)
		}
		bulk.ObserveN(v, n)
		bulks.ObserveN(i, v, n)
	}
	if one.Count() != bulk.Count() || one.Sum() != bulk.Sum() || ones.Count() != bulks.Count() || ones.Sum() != bulks.Sum() {
		t.Fatalf("count/sum: %d/%d single, %d/%d bulk; sharded %d/%d single, %d/%d bulk",
			one.Count(), one.Sum(), bulk.Count(), bulk.Sum(), ones.Count(), ones.Sum(), bulks.Count(), bulks.Sum())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.999, 1} {
		if one.Quantile(q) != bulk.Quantile(q) || ones.Quantile(q) != bulks.Quantile(q) {
			t.Fatalf("Quantile(%v): %d single, %d bulk; sharded %d single, %d bulk", q, one.Quantile(q), bulk.Quantile(q), ones.Quantile(q), bulks.Quantile(q))
		}
	}
}
