package table

import (
	"sync"
	"sync/atomic"
)

// This file implements the flow cache: a sharded, generation-checked
// memoization layer for hot-path decisions. Two layers of the system use it:
//
//   - each non-exact Table memoizes match→entry resolution per (table
//     version, match key), turning the linear prefix/range/ternary scan into
//     a map probe for recurring flow keys, and
//   - the kernel memoizes full fire verdicts per (hook, key, args) for
//     verifier-certified pure programs (internal/core).
//
// Entries are validated lazily against the caller's current generation: the
// next Get of an entry stored under another generation counts an invalidation
// and drops it. For a scan memo the generation is the table's version. For
// the verdict cache it is only the coarsest part of the validity token — the
// tenant's flush counter; the rest (which hook pipeline, which table
// versions, which model set the fire read) is a stamp inside the stored value
// that the kernel compares itself, handing an entry that fails it back
// through Reject. Shards are power-of-two sized and selected by key hash, so
// concurrent lookups on different flow keys land on different locks.
//
// Admission. A miss followed by a Put walks a shard map that is far larger
// than the CPU's caches, allocates the stored value and, once the shard
// fills, clears it wholesale — several times the cost of the engine run the
// verdict cache exists to skip. A flow that never recurs pays all of that to
// serve zero hits, so the verdict cache asks Admit before it stores: the
// first miss of a flow leaves only a fingerprint of its FlowKey in a flat
// array (the doorkeeper), and a later miss that finds the fingerprint is
// admitted. Admit decides nothing but whether to store; a hit still needs
// full FlowKey and generation equality in Get. The fingerprint is of the
// FlowKey alone, not the generation: a commit invalidates what a flow's
// verdict was, not the evidence that the flow recurs. Get and Reject make
// that exact: when they drop a stale entry they leave the flow's fingerprint
// behind, so a flow that was cached before a commit is stored again on its
// first miss after it, however crowded the doorkeeper is.
//
// Put itself stays unconditional. The scan memo's misses cost a linear table
// scan, which a map insert always beats, and its key space is the table's
// match keys rather than every (key, args) combination a hook can see — it
// has no one-hit-wonder problem for a filter to solve.

// FlowKey identifies one cached decision. Hook is the kernel's interned hook
// id (zero for per-table memos); Key is the match key; Arg2/Arg3 are the
// remaining hook arguments (zero when the decision does not depend on them).
type FlowKey struct {
	Hook       uint64
	Key        uint64
	Arg2, Arg3 int64
}

// hash mixes the key material (splitmix64-style). The low bits select the
// shard; the doorkeeper slices the same hash differently (doorkeeper.slot).
func (k FlowKey) hash() uint64 {
	h := k.Key*0x9E3779B97F4A7C15 ^ k.Hook*0xBF58476D1CE4E5B9 ^
		uint64(k.Arg2)*0x94D049BB133111EB ^ uint64(k.Arg3)
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	return h
}

// flowVal wraps a cached value with the generation it was computed against.
type flowVal[V any] struct {
	gen uint64
	v   V
}

// flowShard is one lock domain of the cache. The counters live beside the
// map they describe; padding keeps shards on separate cache lines.
type flowShard[V any] struct {
	mu sync.Mutex
	m  map[FlowKey]flowVal[V]

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	declined      atomic.Int64

	_ [16]byte // pad the struct toward a cache-line multiple
}

// FlowCache is a sharded decision cache with lazy generation invalidation.
// The zero value is not usable; construct with NewFlowCache. A nil *FlowCache
// is a valid always-miss cache, so callers can disable caching by dropping
// the pointer.
type FlowCache[V any] struct {
	mask     uint64
	perShard int
	shards   []flowShard[V]

	// door is the admission filter, nil until the first Admit (the scan memos
	// never call it and carry none); doorCap is the size it may grow to.
	door    atomic.Pointer[doorkeeper]
	doorCap int
}

// FlowCacheStats aggregates the per-shard counters.
type FlowCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Evictions     int64
	// Declined counts the misses Admit turned away; Declined ÷ Misses is the
	// share of misses that were a flow's first sighting.
	Declined int64
	Entries  int64
}

// NewFlowCache builds a cache with shards rounded up to a power of two
// (<=0 selects 8) and at most perShard entries per shard (<=0 selects 4096).
func NewFlowCache[V any](shards, perShard int) *FlowCache[V] {
	if shards <= 0 {
		shards = 8
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if perShard <= 0 {
		perShard = 4096
	}
	doorCap := 1
	for doorCap < n*perShard {
		doorCap <<= 1
	}
	c := &FlowCache[V]{mask: uint64(n - 1), perShard: perShard, shards: make([]flowShard[V], n), doorCap: doorCap}
	for i := range c.shards {
		c.shards[i].m = make(map[FlowKey]flowVal[V])
	}
	return c
}

// Get returns the cached value for k if it is present and was computed
// against generation gen. A present-but-stale entry counts an invalidation
// and is dropped.
func (c *FlowCache[V]) Get(k FlowKey, gen uint64) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	h := k.hash()
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	e, ok := s.m[k]
	if ok && e.gen == gen {
		s.mu.Unlock()
		s.hits.Add(1)
		return e.v, true
	}
	if ok {
		delete(s.m, k)
		s.mu.Unlock()
		c.invalidated(s, h)
		return zero, false
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return zero, false
}

// invalidated books one dropped stale entry of the flow hashing to h: an
// invalidation, a miss, and the flow's fingerprint left in the doorkeeper.
func (c *FlowCache[V]) invalidated(s *flowShard[V], h uint64) {
	if d := c.door.Load(); d != nil {
		// A stale entry is proof the flow recurs: vouch for it, so storing it
		// again takes this one miss.
		if slot, fp := d.slot(h); slot.Load() != fp {
			slot.Store(fp)
		}
	}
	s.invalidations.Add(1)
	s.misses.Add(1)
}

// Reject takes back the hit Get just reported for k: the caller compared the
// value against state the cache cannot see and found it stale. The entry is
// dropped and the probe booked exactly as Get's own stale arm books one — an
// invalidation and a miss, with the flow vouched for — never as a hit. An
// entry a racing Put stored in between is dropped with it, which costs that
// flow one more miss and nothing else.
func (c *FlowCache[V]) Reject(k FlowKey) {
	if c == nil {
		return
	}
	h := k.hash()
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
	s.hits.Add(-1)
	c.invalidated(s, h)
}

// Put stores v for k under generation gen. A full shard is cleared wholesale
// before the insert — eviction is amortized and needs no LRU bookkeeping on
// the hot path.
func (c *FlowCache[V]) Put(k FlowKey, gen uint64, v V) {
	if c == nil {
		return
	}
	s := &c.shards[k.hash()&c.mask]
	s.mu.Lock()
	if _, ok := s.m[k]; !ok && len(s.m) >= c.perShard {
		s.evictions.Add(int64(len(s.m)))
		clear(s.m)
	}
	s.m[k] = flowVal[V]{gen: gen, v: v}
	s.mu.Unlock()
}

// doorkeeper is the admission filter: a direct-mapped array of flow
// fingerprints. A slot holds one fingerprint (bit 0 always set, so zero is an
// empty slot) with a two-bit grace count in bits 1–2. Each other flow that
// lands on an occupied slot spends one grace instead of overwriting; the flow
// that finds none left takes the slot. Without the grace count two candidates
// sharing a slot overwrite each other on every round of a cyclic working set
// and neither is ever admitted; with it the slot's holder survives until it
// returns, releases the slot on admission, and the next candidate moves in.
// It is also the filter's only ageing: a fingerprint nobody comes back for
// lasts four collisions, so there is no reset timer.
//
// The array starts at four pages and is replaced by an empty one of twice the
// size whenever a quarter of its slots have been claimed, up to one slot per
// entry of the cache's capacity: a working set that fits the cache fits the
// filter, a cache that only ever sees a few hundred flows pays for a few
// hundred slots, and the size is derived from the traffic, not configured.
// Growing forgets the candidates in flight (each pays one more miss), never
// a cached flow. At full size nothing is counted any more.
//
// used is the one word callers share, and only while the array can still
// grow: over a cache's whole life it is incremented fewer than doorCap/2
// times. It sits on its own cache line so those increments never invalidate
// the slots header every Admit reads.
type doorkeeper struct {
	slots []atomic.Uint32
	_     [64 - 24]byte
	used  atomic.Int64 // empty slots claimed since this array was made
	_     [64 - 8]byte
}

const (
	doorGraceUnit = 1 << 1 // one grace, in slot bits
	doorGraceMask = 3 << 1 // a new holder's three graces

	doorMinSlots = 4096
)

// slot returns the slot and fingerprint of the flow whose FlowKey hashes to
// h: the slot from the hash's high half (the low bits chose the shard), the
// fingerprint from its low half.
func (d *doorkeeper) slot(h uint64) (*atomic.Uint32, uint32) {
	return &d.slots[(h>>32)&uint64(len(d.slots)-1)], uint32(h)&^doorGraceMask | 1
}

// growDoor replaces old (nil: none yet) with an empty doorkeeper of twice its
// size and returns the current one; of racing callers one wins.
func (c *FlowCache[V]) growDoor(old *doorkeeper) *doorkeeper {
	n := doorMinSlots
	if old != nil {
		n = 2 * len(old.slots)
	}
	c.door.CompareAndSwap(old, &doorkeeper{slots: make([]atomic.Uint32, min(n, c.doorCap))})
	return c.door.Load()
}

// Admit reports whether a value for k is worth storing: true once k has
// missed before and its fingerprint is still in the doorkeeper, false (and
// counted as declined) on a first sighting, which only leaves the
// fingerprint. It takes no lock and allocates only when the doorkeeper
// grows: slots are independent atomics, and a racing pair of callers can at
// worst admit a flow one miss early or late.
func (c *FlowCache[V]) Admit(k FlowKey) bool {
	if c == nil {
		return false
	}
	d := c.door.Load()
	if d == nil {
		d = c.growDoor(nil)
	}
	h := k.hash()
	slot, fp := d.slot(h)
	cur := slot.Load()
	if cur&^doorGraceMask == fp {
		if cur != fp {
			slot.Store(fp) // admitted: the slot is free for the next candidate
		}
		return true
	}
	if cur&doorGraceMask != 0 {
		slot.Store(cur - doorGraceUnit)
	} else {
		slot.Store(fp | doorGraceMask)
		if n := len(d.slots); cur == 0 && n < c.doorCap && d.used.Add(1) > int64(n/4) {
			c.growDoor(d)
		}
	}
	c.shards[h&c.mask].declined.Add(1)
	return false
}

// Reset drops every cached entry (counted as evictions). Fingerprints stay:
// a flow seen before Reset is still a flow that recurs.
func (c *FlowCache[V]) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.evictions.Add(int64(len(s.m)))
		clear(s.m)
		s.mu.Unlock()
	}
}

// Stats sums the per-shard counters.
func (c *FlowCache[V]) Stats() FlowCacheStats {
	var st FlowCacheStats
	if c == nil {
		return st
	}
	for i := range c.shards {
		s := &c.shards[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Invalidations += s.invalidations.Load()
		st.Evictions += s.evictions.Load()
		st.Declined += s.declined.Load()
		s.mu.Lock()
		st.Entries += int64(len(s.m))
		s.mu.Unlock()
	}
	return st
}
