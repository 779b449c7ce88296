package table

import "sync/atomic"

// This file holds the open-addressed store the package's two lock-free
// stores share: each verdict-cache shard's table (flowcache.go) and an exact
// table's entry index (exact.go).
//
// A slotTable is a power-of-two array of atomic pointers to entries, probed
// linearly from the slot the key's hash names. A slot is empty (nil, which
// ends every probe), a tombstone (a removed entry's place; probes walk over
// it) or an entry. Readers probe it without a lock. Writers hold their
// owner's mutex, count the table's entries and tombstones themselves, and
// keep three rules:
//
//   - An entry's key is never written once a slot points at it; a changed
//     entry is a new one stored into the slot.
//   - One key, one slot: an insert walks the key's whole probe chain before it
//     claims the empty slot at its end, and tombstones are never claimed (a
//     rebuild drops them), so removing an entry never uncovers an older one
//     for the same key further down the chain, and a lookup of a key present
//     throughout always finds it: chains are never cut and entries never move
//     within an array.
//   - A table that would pass half used (entries plus tombstones) is rebuilt
//     into a fresh array and only then published; the old array is never
//     written again.
//
// Each owner probes with its own loop, written for its own key type: from the
// key's home slot, stop at the first empty slot or at an entry (not the
// tombstone) filed under the key. A probe shared through the type parameters
// would compare keys through a method call it cannot inline, and the probe is
// most of a lookup's cost: on a 2-vCPU VM it added 4-6 ns to an exact-table
// Lookup (20-22 ns) and 9-10 ns to a flow-cache probe (measured inside a
// 32-35 ns prefix-table Lookup, when prefix tables still memoized their scans
// in a flow cache).
//
// A rebuild sizes the fresh array to its entries: it doubles while they fill
// more than a quarter of it and halves while they fill less than an eighth,
// down to minSlots. Memory therefore follows the entries held, not the most
// ever held, and an insert after a rebuild has at least a quarter of the
// array before the next one.
type slotTable[E any, P homed[E]] struct {
	// slots has power-of-two length and at least half of it empty, so every
	// probe chain ends.
	slots []atomic.Pointer[E]
	// tomb is what a removed entry's slot points at until the next rebuild.
	// It marks by address alone; nothing reads its fields.
	tomb E
}

// homed is what a slotTable needs of its entries, through a pointer to one:
// the slot an entry's probe chain starts from (any bits; the table masks
// them).
type homed[E any] interface {
	*E
	slotHome() uint64
}

const minSlots = 8

func newSlotTable[E any, P homed[E]](slots int) *slotTable[E, P] {
	return &slotTable[E, P]{slots: make([]atomic.Pointer[E], slots)}
}

// sparse reports whether live entries fill less than a sixteenth of t. An
// owner that shrinks a table once its removals leave it sparse rebuilds it to
// between an eighth and a quarter full, so it takes removing half the
// remaining entries again before the next such rebuild.
func (t *slotTable[E, P]) sparse(live int) bool {
	return len(t.slots) > minSlots && 16*live < len(t.slots)
}

// full reports whether t, holding live entries and tombs tombstones, has no
// room for one more key: storing it would pass half used.
func (t *slotTable[E, P]) full(live, tombs int) bool {
	return 2*(live+tombs+1) > len(t.slots)
}

// kill turns the entry in slot, one of t's, into a tombstone.
func (t *slotTable[E, P]) kill(slot *atomic.Pointer[E]) {
	slot.Store(&t.tomb)
}

// rebuilt returns a copy of t, which holds live entries, without its
// tombstones and sized to them (the file comment's rule).
func (t *slotTable[E, P]) rebuilt(live int) *slotTable[E, P] {
	n := len(t.slots)
	if live > n/4 {
		n *= 2
	}
	for n > minSlots && 8*live < n {
		n /= 2
	}
	nt := newSlotTable[E, P](n)
	mask := uint64(n - 1)
	t.walk(func(e *E) {
		// The fresh array holds each key once and no tombstone, so an
		// entry's place is the first empty slot of its chain.
		i := P(e).slotHome()
		for nt.slots[i&mask].Load() != nil {
			i++
		}
		nt.slots[i&mask].Store(e)
	})
	return nt
}

// walk calls fn on every entry of t, in slot order.
func (t *slotTable[E, P]) walk(fn func(*E)) {
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && e != &t.tomb {
			fn(e)
		}
	}
}
