package telemetry

import (
	"container/list"
	"fmt"
	"sync"
)

// SeriesVec is a bounded family of labeled counters — one live series per
// label value (e.g. per tenant). Unbounded label cardinality is the classic
// telemetry leak: every tenant name that ever fires would pin a counter
// forever. A vec instead holds at most cap series in LRU order; creating a
// series past capacity evicts the least-recently-touched one and counts the
// eviction, so the registry's footprint is bounded by configuration, not by
// workload history.
type SeriesVec struct {
	name string
	cap  int

	mu        sync.Mutex
	series    map[string]*list.Element
	lru       list.List // front = most recently touched
	evictions int64
}

type seriesEntry struct {
	label string
	c     *Counter
}

func newSeriesVec(name string, capacity int) *SeriesVec {
	if capacity <= 0 {
		capacity = 1
	}
	v := &SeriesVec{name: name, cap: capacity, series: make(map[string]*list.Element)}
	v.lru.Init()
	return v
}

// Name reports the vec's metric name.
func (v *SeriesVec) Name() string { return v.name }

// Counter returns (creating on first use) the series for label, touching it
// most-recently-used. Creation past capacity evicts the coldest series; its
// accumulated count is dropped, not merged, so a label that comes back after
// eviction starts from zero. Callers on hot paths should resolve the counter
// once and keep the pointer — an evicted series' pointer stays valid, its
// writes just stop being rendered.
func (v *SeriesVec) Counter(label string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if el, ok := v.series[label]; ok {
		v.lru.MoveToFront(el)
		return el.Value.(*seriesEntry).c
	}
	if len(v.series) >= v.cap {
		oldest := v.lru.Back()
		v.lru.Remove(oldest)
		delete(v.series, oldest.Value.(*seriesEntry).label)
		v.evictions++
	}
	e := &seriesEntry{label: label, c: &Counter{}}
	v.series[label] = v.lru.PushFront(e)
	return e.c
}

// Forget drops label's series without counting an eviction (the label's
// owner is gone, e.g. a removed tenant).
func (v *SeriesVec) Forget(label string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if el, ok := v.series[label]; ok {
		v.lru.Remove(el)
		delete(v.series, label)
	}
}

// Len reports the number of live series.
func (v *SeriesVec) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.series)
}

// snapshotLines renders every live series plus the eviction count.
func (v *SeriesVec) snapshotLines(out []string) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	for label, el := range v.series {
		out = append(out, fmt.Sprintf("%s{%s} %d", v.name, label, el.Value.(*seriesEntry).c.Load()))
	}
	out = append(out, fmt.Sprintf("%s.evictions %d", v.name, v.evictions))
	return out
}
