package telemetry

import (
	"fmt"
	"sync/atomic"
)

// This file adds the sharded (striped) metric primitives the hot path uses:
// each firing CPU-shard increments its own cache-line-padded stripe, and the
// stripes are summed lazily at read time. A plain Counter is one atomic add,
// but under many cores every add bounces the same cache line; striping makes
// the write side scale and moves the aggregation cost to Snapshot.

// stripe is one padded counter lane.
type stripe struct {
	v atomic.Int64
	_ [56]byte
}

// ShardedCounter is a monotonically increasing count striped across lanes.
type ShardedCounter struct {
	mask    uint64
	stripes []stripe
}

// NewShardedCounter builds a counter with lanes rounded up to a power of two
// (<=0 selects 16).
func NewShardedCounter(lanes int) *ShardedCounter {
	if lanes <= 0 {
		lanes = 16
	}
	n := 1
	for n < lanes {
		n <<= 1
	}
	return &ShardedCounter{mask: uint64(n - 1), stripes: make([]stripe, n)}
}

// Inc adds one on the caller's lane (any value; it is masked).
func (c *ShardedCounter) Inc(lane int) { c.stripes[uint64(lane)&c.mask].v.Add(1) }

// Add adds n on the caller's lane; adding zero writes nothing.
func (c *ShardedCounter) Add(lane int, n int64) {
	if n != 0 {
		c.stripes[uint64(lane)&c.mask].v.Add(n)
	}
}

// Load sums the stripes.
func (c *ShardedCounter) Load() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// histStripe pads a Histogram so neighbouring lanes do not share lines.
type histStripe struct {
	h Histogram
	_ [56]byte
}

// ShardedHistogram is a power-of-two bucketed histogram striped across lanes;
// observations go to the caller's lane and reads merge all lanes.
type ShardedHistogram struct {
	mask    uint64
	stripes []histStripe
}

// NewShardedHistogram builds a histogram with lanes rounded up to a power of
// two (<=0 selects 16).
func NewShardedHistogram(lanes int) *ShardedHistogram {
	if lanes <= 0 {
		lanes = 16
	}
	n := 1
	for n < lanes {
		n <<= 1
	}
	return &ShardedHistogram{mask: uint64(n - 1), stripes: make([]histStripe, n)}
}

// Observe records v on the caller's lane.
func (h *ShardedHistogram) Observe(lane int, v int64) {
	h.stripes[uint64(lane)&h.mask].h.Observe(v)
}

// ObserveN records n observations of v on the caller's lane: two atomic adds
// however large n is (none when n is 0), which is how a caller that tallies a
// run of equal values publishes it.
func (h *ShardedHistogram) ObserveN(lane int, v, n int64) {
	if n != 0 {
		h.stripes[uint64(lane)&h.mask].h.ObserveN(v, n)
	}
}

// Count reports total observations across lanes.
func (h *ShardedHistogram) Count() int64 {
	var n int64
	for i := range h.stripes {
		n += h.stripes[i].h.Count()
	}
	return n
}

// Sum reports the sum of observed values across lanes.
func (h *ShardedHistogram) Sum() int64 {
	var s int64
	for i := range h.stripes {
		s += h.stripes[i].h.Sum()
	}
	return s
}

// Mean reports the average observed value (0 when empty).
func (h *ShardedHistogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile over the merged buckets.
func (h *ShardedHistogram) Quantile(q float64) int64 {
	var merged bucketCounts
	for i := range h.stripes {
		h.stripes[i].h.addTo(&merged)
	}
	return merged.quantile(q)
}

// SnapshotLine renders the histogram in the registry's histogram format.
func (h *ShardedHistogram) SnapshotLine(name string) string {
	return fmt.Sprintf("%s count=%d mean=%.1f p99<=%d", name, h.Count(), h.Mean(), h.Quantile(0.99))
}

// AddSource registers a lazy metric source: fn is invoked at Snapshot time
// and emits fully formatted "name value" lines. Sources own their names;
// registering a source whose names collide with registry counters yields
// duplicate lines.
func (r *Registry) AddSource(fn func() []string) {
	r.mu.Lock()
	r.sources = append(r.sources, fn)
	r.mu.Unlock()
}
