// Package telemetry provides the lightweight counters and latency histograms
// the kernel uses to account for RMT overhead ("lean monitoring" requires the
// monitors themselves to be cheap, §2.1). All operations are lock-free on the
// hot path.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
	// bound marks a counter handed out by Registry.Bind that nobody has asked
	// for by name yet; Snapshot omits it while it reads zero. Guarded by the
	// registry's lock.
	bound bool
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a point-in-time value (e.g. the control plane's last durable log
// sequence number): Set replaces rather than accumulates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load reads the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a power-of-two bucketed latency/size histogram. Buckets are
// [0,1), [1,2), [2,4), ... up to the last overflow bucket. The observation
// count is the sum of the buckets, so Observe pays for two atomic adds — the
// bucket and the sum — and readers, who are rare, add the buckets up.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

const histBuckets = 48

// bucketFor is the number of significant bits of v, capped at the overflow
// bucket; negative values land in bucket 0.
func bucketFor(v int64) int {
	if v < 0 {
		return 0
	}
	return min(bits.Len64(uint64(v)), histBuckets-1)
}

// Observe records a value.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value at the price of one.
func (h *Histogram) ObserveN(v, n int64) {
	h.buckets[bucketFor(v)].Add(n)
	h.sum.Add(v * n)
}

// bucketCounts is a point-in-time copy of one or more histograms' buckets.
type bucketCounts [histBuckets]int64

// addTo adds h's bucket counts into c.
func (h *Histogram) addTo(c *bucketCounts) {
	for b := range c {
		c[b] += h.buckets[b].Load()
	}
}

func (c *bucketCounts) count() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// quantile returns an upper bound on the q-quantile (0<=q<=1) using bucket
// upper edges.
func (c *bucketCounts) quantile(q float64) int64 {
	n := c.count()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen int64
	for b, v := range c {
		seen += v
		if seen > target {
			if b == 0 {
				return 0
			}
			return int64(1) << uint(b) // upper edge of bucket b
		}
	}
	return int64(1) << (histBuckets - 1)
}

// Count reports total observations.
func (h *Histogram) Count() int64 {
	var c bucketCounts
	h.addTo(&c)
	return c.count()
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean reports the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile (0<=q<=1) using bucket
// upper edges.
func (h *Histogram) Quantile(q float64) int64 {
	var c bucketCounts
	h.addTo(&c)
	return c.quantile(q)
}

// Registry is a named collection of counters and histograms.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	vecs     map[string]*SeriesVec
	sources  []func() []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		vecs:     make(map[string]*SeriesVec),
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	c.bound = false
	return c
}

// Bind returns the named counter for a caller that resolves it once and keeps
// the pointer, so counting an event never takes the registry lock. Unlike
// Counter it does not make the name appear in Snapshot before the first event:
// the line shows up exactly when a per-event Counter(name).Inc() would have
// created it.
func (r *Registry) Bind(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{bound: true}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SeriesVec returns (creating on first use) the named labeled-counter
// family, bounded at capacity live series. The capacity of an existing vec
// is not changed by later calls.
func (r *Registry) SeriesVec(name string, capacity int) *SeriesVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = newSeriesVec(name, capacity)
		r.vecs[name] = v
	}
	return v
}

// Snapshot renders all metrics as sorted "name value" lines, including lines
// from lazy sources registered with AddSource (sharded hot-path metrics are
// aggregated only here, never on the write side).
func (r *Registry) Snapshot() []string {
	r.mu.Lock()
	sources := r.sources
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		if c.bound && c.Load() == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%s %d", name, c.Load()))
	}
	for name, g := range r.gauges {
		out = append(out, fmt.Sprintf("%s %d", name, g.Load()))
	}
	for name, h := range r.hists {
		out = append(out, fmt.Sprintf("%s count=%d mean=%.1f p99<=%d", name, h.Count(), h.Mean(), h.Quantile(0.99)))
	}
	vecs := make([]*SeriesVec, 0, len(r.vecs))
	for _, v := range r.vecs {
		vecs = append(vecs, v)
	}
	r.mu.Unlock()
	for _, v := range vecs {
		out = v.snapshotLines(out)
	}
	for _, src := range sources {
		out = append(out, src()...)
	}
	sort.Strings(out)
	return out
}
