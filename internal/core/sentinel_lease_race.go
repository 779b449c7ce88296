//go:build race

package core

import "sync"

// scratchPoolCap bounds the recycled scratch stack (beyond it, scratches —
// and their parked sampler tickets — are dropped to the GC).
const scratchPoolCap = 64

// scratchPool under -race is a mutex-guarded LIFO stack rather than the
// sync.Pool normal builds use (sentinel_lease.go has the reason). LIFO reuse
// keeps a sequential fire stream redrawing the same scratch, preserving ticket
// continuity; the extra lock cost is acceptable in race builds.
type scratchPool struct {
	mu   sync.Mutex
	free []*scratch
	mk   func() *scratch
}

// setNew installs the allocator an empty pool falls back to.
func (sp *scratchPool) setNew(mk func() *scratch) { sp.mk = mk }

func (sp *scratchPool) get() *scratch {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if n := len(sp.free); n > 0 {
		s := sp.free[n-1]
		sp.free = sp.free[:n-1]
		return s
	}
	return sp.mk()
}

func (sp *scratchPool) put(s *scratch) {
	sp.mu.Lock()
	if len(sp.free) < scratchPoolCap {
		sp.free = append(sp.free, s)
	}
	sp.mu.Unlock()
}
