package table

import "sync/atomic"

// This file holds an exact table's entry store: a slotTable (slots.go) of the
// table's own rows, keyed by Entry.Key. Lookups read it without a lock;
// writers hold the table's mutex. Beyond the store's rules:
//
//   - A single-key edit (Insert, Delete, UpdateAction) stores into the key's
//     slot in place; the entry it displaces is retired after the version bump
//     (Table.publish), and an entry's fields other than its liveness flag are
//     never written once a slot points at it.
//   - A rebuilt index is published with a new snapshot. An insert that would
//     pass half used rebuilds; so does a delete that leaves the entries
//     filling less than a sixteenth of the slots, which gives a table emptied
//     from its peak its memory back.
//
// A lookup racing an in-place edit sees the slot's old content or its new
// one, each whole: the answer of the table just before the edit or just
// after it, as if the edit had published a whole new copy of the entry set.
// A walk of every slot gets no such promise, so Entries holds the mutex.
type exactIndex = slotTable[Entry, *Entry]

func newExactIndex(slots int) *exactIndex { return newSlotTable[Entry](slots) }

func (e *Entry) slotHome() uint64 { return exactHash(e.Key) }

// probeExact walks key's chain in x from its home slot. It returns the slot
// that holds key and the entry loaded from it, or the empty slot that ends
// the chain and nil.
func probeExact(x *exactIndex, key uint64) (*atomic.Pointer[Entry], *Entry) {
	mask := uint64(len(x.slots) - 1)
	for i := exactHash(key); ; i++ {
		slot := &x.slots[i&mask]
		e := slot.Load()
		if e == nil || e.Key == key && e != &x.tomb {
			return slot, e
		}
	}
}

// exactHash mixes a match key (one round of murmur3's finalizer), so keys
// that differ only in their high bits still land on different slots.
func exactHash(key uint64) uint64 {
	h := (key ^ key>>33) * 0xFF51AFD7ED558CCD
	return h ^ h>>33
}
