//go:build !race

package core

import "sync"

// scratchPool recycles dispatch scratches (fire.go), sampler lease set
// included. In normal builds it is a sync.Pool: the per-P free lists make the
// once-per-dispatch draw/return contention-free — no shared cache line, no
// lock — which is what keeps the sentinel's sampling overhead within the
// BenchmarkHotPath/aot/sentinel budget. A goroutine firing in a loop keeps
// redrawing the same scratch from its P-local slot, so ticket continuity and
// the deterministic sampling schedule of a sequential fire stream are
// preserved. A scratch's parked tickets are burned only if the GC evicts it
// (two full cycles without a draw) — an aperiodic event that cannot alias with
// the sampling modulus. Race builds substitute a mutex-guarded stack
// (sentinel_lease_race.go): the race detector drops sync.Pool Puts at random,
// which would make the schedule nondeterministic exactly where the determinism
// tests need it exact.
type scratchPool struct {
	p sync.Pool
}

// setNew installs the allocator an empty pool falls back to.
func (sp *scratchPool) setNew(mk func() *scratch) { sp.p.New = func() any { return mk() } }

func (sp *scratchPool) get() *scratch { return sp.p.Get().(*scratch) }

func (sp *scratchPool) put(s *scratch) { sp.p.Put(s) }
