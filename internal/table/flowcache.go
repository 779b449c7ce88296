package table

import (
	"sync"
	"sync/atomic"
)

// This file implements the flow cache: a sharded, generation-checked
// memoization layer for hot-path decisions. The kernel's verdict cache
// (internal/core) uses it to memoize full fire verdicts per (hook, key, args)
// for verifier-certified pure programs.
//
// Entries are validated lazily against the caller's current generation: the
// next Get of an entry stored under another generation counts an invalidation
// and drops it. For the verdict cache the generation is only the coarsest
// part of the validity token — the tenant's flush counter; the rest (which hook pipeline, which table
// versions, which model set the fire read) is a stamp inside the stored value
// that the kernel compares itself, handing an entry that fails it back
// through Reject. Shards are power-of-two sized and selected by key hash.
//
// The store. A shard's entries are immutable {key, gen, v} records in a
// slotTable (slots.go, which states the writers' rules), published through an
// atomic pointer in the shard. A shard that has stored nothing has no table;
// tables start at minSlots and are sized to the flows actually cached, and a
// shard cleared wholesale keeps the size its traffic had earned.
//
// Readers and writers. Get's probe — one FlowKey.hash, one load of the table
// pointer, atomic slot loads up to the first empty one, full FlowKey and
// generation equality on the entry — takes no lock, so a hit and a plain miss
// never wait for anything. Everything that changes a table (Put, the drop of
// a stale entry inside Get, Reject, Reset) runs under the shard mutex, and
// those run once per admitted miss or invalidation, never per hit. An entry
// is never written after it is published: a changed value is a new entry
// stored into the slot.
//
// Why a lock-free Get is a legal Get of the mutex-guarded map this store
// replaced. A hit returns an entry it loaded from a slot, whose key and
// generation equal the caller's: some Put stored exactly that value for
// exactly that key and generation, and the entry was the key's live one in
// its table when it was loaded. For each thing a writer can be doing
// meanwhile:
//
//   - Superseded table (a rebuild or wholesale clear published after the
//     reader loaded the pointer): the old array is frozen at the moment it was
//     replaced, which lies inside the Get; the reader answers as a Get ordered
//     just before the writer.
//   - Slot being tombstoned (stale drop, Reject): the reader sees the entry
//     (ordered before the drop) or the tombstone, walks on and misses (after).
//   - Slot being replaced (Put over the key): old entry or new, each whole; a
//     generation mismatch on the old one sends the reader to the locked drop,
//     which looks again and finds the new one.
//   - Slot being inserted (Put of a new key at a chain's end): the reader
//     sees empty and misses (before) or the entry (after). No other probe is
//     disturbed: entries never move within an array and no chain is ever cut.
//   - A reader so slow that the key was dropped and stored again further down
//     its chain can pass both places at the wrong moments and report a miss
//     although the key was present throughout: one extra miss, answered by a
//     Put that replaces in place.
//
// A verdict-cache reader then runs the kernel's own stamp check on whatever
// it got, so no interleaving can replay a verdict whose inputs have changed.
//
// Booking. Get and Admit count nothing: the caller books each probe's outcome
// — a hit, a miss, a declined admission — through Book, so a caller that
// probes many times per call (the kernel's batches) publishes its tallies
// once instead of bumping a shared counter per probe. Every Get is booked as
// exactly one hit or one miss, which keeps Hits + Misses equal to the probes
// made. What only the cache can see it counts itself: an invalidation when Get or Reject drops a stale
// entry (under the shard lock, once per drop) and an eviction when Put or
// Reset clears entries. A caller that Rejects what Get returned books that
// probe as a miss, never as a hit, so Reject takes nothing back.
//
// Admission. A miss followed by a Put allocates the stored value and its
// entry, walks memory far larger than the CPU's caches and, once the shard
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
// first miss after it, however crowded the doorkeeper is. None of this reads
// or writes the store, so the store's replacement left it as it was. Put
// itself stays unconditional: a caller that stores without asking Admit gets
// no filter.

// FlowKey identifies one cached decision. Hook is the kernel's interned hook
// id; Key is the match key; Arg2/Arg3 are the
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

// flowEntry is one stored decision. It is immutable once a slot points at it:
// readers hold entries without a lock, so a new value is a new entry.
type flowEntry[V any] struct {
	key FlowKey
	gen uint64
	v   V
}

func (e *flowEntry[V]) slotHome() uint64 { return e.key.hash() >> flowSlotShift }

// flowSlotShift skips the hash bits that chose the shard (and would be the
// same for every key in it) when naming a key's home slot.
const flowSlotShift = 16

// newFlowTable returns an empty store for one shard (slots.go). Nothing in it
// but the slots' contents changes once the shard points at it.
func newFlowTable[V any](slots int) *slotTable[flowEntry[V], *flowEntry[V]] {
	return newSlotTable[flowEntry[V]](slots)
}

// probeFlow walks k's chain in t from its home slot (h is k's hash). It
// returns the slot that holds k and the entry loaded from it, or the empty
// slot that ends the chain and nil.
func probeFlow[V any](t *slotTable[flowEntry[V], *flowEntry[V]], k FlowKey, h uint64) (*atomic.Pointer[flowEntry[V]], *flowEntry[V]) {
	mask := uint64(len(t.slots) - 1)
	for i := h >> flowSlotShift; ; i++ {
		slot := &t.slots[i&mask]
		e := slot.Load()
		if e == nil || e != &t.tomb && e.key == k {
			return slot, e
		}
	}
}

// flowShard is one writer-lock domain of the cache, laid out as two cache
// lines: the table pointer every probe loads, which only a rebuild or a clear
// ever writes, and the words that are written — the counters callers book
// into and the writers' mutex and bookkeeping. Readers of one shard on
// different cores then share the first line; with both on one line a booked
// hit would invalidate the pointer every other reader needs (two lockstep
// readers of 256 flows, when Get still booked its own hits: 27 ns per Get on
// one line, 22 on two).
type flowShard[V any] struct {
	tab atomic.Pointer[slotTable[flowEntry[V], *flowEntry[V]]] // nil until the shard's first Put
	_   [64 - 8]byte

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	declined      atomic.Int64

	mu sync.Mutex // serializes everything that stores to tab or its slots
	// live and tombs count the entries and tombstones in tab's slots; mu
	// guards them.
	live, tombs int
}

// kill turns the entry in slot, one of t's, into a tombstone. The caller
// holds s.mu and t is s.tab.
func (s *flowShard[V]) kill(t *slotTable[flowEntry[V], *flowEntry[V]], slot *atomic.Pointer[flowEntry[V]]) {
	t.kill(slot)
	s.live--
	s.tombs++
}

// FlowCache is a sharded decision cache with lazy generation invalidation.
// The zero value is not usable; construct with NewFlowCache. A nil *FlowCache
// is a valid always-miss cache, so callers can disable caching by dropping
// the pointer.
type FlowCache[V any] struct {
	mask     uint64
	perShard int
	shards   []flowShard[V]

	// door is the admission filter, nil until the first Admit (a cache that
	// never calls it carries none); doorCap is the size it may grow to.
	door    atomic.Pointer[doorkeeper]
	doorCap int
}

// FlowCacheStats aggregates the per-shard counters.
type FlowCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Evictions     int64
	// Declined counts the misses Admit turned away, as callers booked them;
	// Declined ÷ Misses is the share of misses that were a flow's first
	// sighting.
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
	return &FlowCache[V]{mask: uint64(n - 1), perShard: perShard, shards: make([]flowShard[V], n), doorCap: doorCap}
}

// Get returns the cached value for k if it is present and was computed
// against generation gen. A present-but-stale entry counts an invalidation
// and is dropped. Hits and plain misses take no lock and write nothing; the
// caller books the outcome (Book).
func (c *FlowCache[V]) Get(k FlowKey, gen uint64) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	h := k.hash()
	s := &c.shards[h&c.mask]
	if t := s.tab.Load(); t != nil {
		if _, e := probeFlow(t, k, h); e != nil {
			if e.gen == gen {
				return e.v, true
			}
			return c.getStale(s, k, h, gen)
		}
	}
	return zero, false
}

// getStale is Get once the lock-free probe has found k under another
// generation: it looks again under the shard lock, because only a writer may
// drop the entry and a racing writer may already have replaced or dropped it.
func (c *FlowCache[V]) getStale(s *flowShard[V], k FlowKey, h, gen uint64) (V, bool) {
	var zero V
	s.mu.Lock()
	t := s.tab.Load()
	slot, e := probeFlow(t, k, h)
	switch {
	case e == nil:
		s.mu.Unlock()
	case e.gen == gen:
		s.mu.Unlock()
		return e.v, true
	default:
		s.kill(t, slot)
		s.mu.Unlock()
		c.invalidated(s, h)
	}
	return zero, false
}

// invalidated books one dropped stale entry of the flow hashing to h: an
// invalidation, and the flow's fingerprint left in the doorkeeper. The probe
// that found it is the caller's to book, as a miss.
func (c *FlowCache[V]) invalidated(s *flowShard[V], h uint64) {
	if d := c.door.Load(); d != nil {
		// A stale entry is proof the flow recurs: vouch for it, so storing it
		// again takes this one miss.
		if slot, fp := d.slot(h); slot.Load() != fp {
			slot.Store(fp)
		}
	}
	s.invalidations.Add(1)
}

// Reject drops the entry Get just returned for k: the caller compared the
// value against state the cache cannot see and found it stale. It counts what
// Get's own stale arm counts — an invalidation, with the flow vouched for —
// and the caller books the probe as a miss. An entry a racing Put stored in
// between is dropped with it, which costs that flow one more miss and nothing
// else.
func (c *FlowCache[V]) Reject(k FlowKey) {
	if c == nil {
		return
	}
	h := k.hash()
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	if t := s.tab.Load(); t != nil {
		if slot, e := probeFlow(t, k, h); e != nil {
			s.kill(t, slot)
		}
	}
	s.mu.Unlock()
	c.invalidated(s, h)
}

// Book adds a caller's tallies of probe outcomes — hits, misses and declined
// admissions — to the counters Stats reports, on the shard lane selects (any
// value; it is masked). Nothing else writes them.
func (c *FlowCache[V]) Book(lane int, hits, misses, declined int64) {
	if c == nil {
		return
	}
	s := &c.shards[uint64(lane)&c.mask]
	if hits != 0 {
		s.hits.Add(hits)
	}
	if misses != 0 {
		s.misses.Add(misses)
	}
	if declined != 0 {
		s.declined.Add(declined)
	}
}

// Put stores v for k under generation gen. A full shard is cleared wholesale
// before the insert — eviction is amortized and needs no LRU bookkeeping on
// the hot path.
func (c *FlowCache[V]) Put(k FlowKey, gen uint64, v V) {
	if c == nil {
		return
	}
	h := k.hash()
	s := &c.shards[h&c.mask]
	e := &flowEntry[V]{key: k, gen: gen, v: v}
	s.mu.Lock()
	t := s.tab.Load()
	if t == nil {
		t = newFlowTable[V](minSlots)
		s.tab.Store(t)
	}
	slot, old := probeFlow(t, k, h)
	if old == nil {
		// A new key takes the empty slot that ended its chain, unless the
		// table has to be replaced first: cleared because the shard is full,
		// or rebuilt to keep that chain short.
		var nt *slotTable[flowEntry[V], *flowEntry[V]]
		switch {
		case s.live >= c.perShard:
			s.evictions.Add(int64(s.live))
			nt, s.live = newFlowTable[V](len(t.slots)), 0
		case t.full(s.live, s.tombs):
			nt = t.rebuilt(s.live)
		}
		if nt != nil {
			slot, _ = probeFlow(nt, k, h)
			s.tab.Store(nt)
			s.tombs = 0
		}
		s.live++
	}
	slot.Store(e)
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
// missed before and its fingerprint is still in the doorkeeper, false on a
// first sighting, which only leaves the fingerprint (the caller books it as
// declined). It takes no lock and allocates only when the doorkeeper
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
	return false
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
		st.Entries += int64(s.live)
		s.mu.Unlock()
	}
	return st
}
