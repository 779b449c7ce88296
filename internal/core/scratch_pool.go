package core

import "sync"

// scratchPoolCap bounds the recycled scratch stack (beyond it, scratches —
// and their parked sampler tickets — are dropped to the GC).
const scratchPoolCap = 64

// scratchPool recycles dispatch scratches (fire.go), sampler lease set
// included, as a mutex-guarded LIFO stack. LIFO reuse is what keeps the
// sentinel's sampling schedule exact: a sequential fire stream redraws the
// scratch it just returned, so its lease set keeps consuming the same ticket
// block in order. A sync.Pool breaks that — the GC clears it and the race
// detector drops Puts at random, handing a dispatch a scratch whose leases
// hold a different block, so different fires get sampled. The lock is taken
// once per dispatch that leaves the cached-hit path, never per event.
type scratchPool struct {
	mu   sync.Mutex
	free []*scratch
	mk   func() *scratch
}

// setNew installs the allocator an empty pool falls back to.
func (sp *scratchPool) setNew(mk func() *scratch) { sp.mk = mk }

func (sp *scratchPool) get() *scratch {
	sp.mu.Lock()
	if n := len(sp.free); n > 0 {
		s := sp.free[n-1]
		sp.free = sp.free[:n-1]
		sp.mu.Unlock()
		return s
	}
	mk := sp.mk
	sp.mu.Unlock()
	return mk()
}

func (sp *scratchPool) put(s *scratch) {
	sp.mu.Lock()
	if len(sp.free) < scratchPoolCap {
		sp.free = append(sp.free, s)
	}
	sp.mu.Unlock()
}
