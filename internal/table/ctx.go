package table

import (
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultHistCap is the default per-key history ring capacity. Histories are
// the raw material for online learning (e.g. page-access delta sequences).
const DefaultHistCap = 128

// ctxShards is the number of lock domains in the context store. Keys are
// hashed to shards, so concurrent fires on different flow keys (different
// PIDs, inodes, ...) update context under different locks.
const ctxShards = 16

// CtxStore is the execution-context key/value map of type RMT_CTXT (§3.1).
// Each key (PID, inode, cgroup id, ...) owns a fixed set of scalar fields and
// a bounded history ring. Lookups and updates are constant-time "in a
// system-wide manner without having to walk complex kernel data structures".
//
// The store is sharded by key, and a shard's lock is taken only to find or
// create a record (and by Keys, Len, SumField, HistPushes and Drop): once
// found, a record's fields are atomic words and its history ring has a mutex
// of its own. Every call is atomic on its own. A caller that touches one key
// several times can resolve its record once (Find, Rec) and call the record.
type CtxStore struct {
	numFields int
	histCap   int

	shards [ctxShards]ctxShard
}

type ctxShard struct {
	mu   sync.RWMutex
	recs map[int64]*CtxRec
	// dropped is the largest push count of a record Drop removed: a record
	// created after it counts on from there, so a key's count never falls.
	dropped uint64
	_       [8]byte // keep neighbouring shards off one cache line
}

// CtxRec is one key's record. A handle stays usable after Drop removes the
// record from its store, but what is written through it then is lost: the
// key's next record starts empty.
type CtxRec struct {
	fields []atomic.Int64
	// n is the number of valid history entries (<= len(hist)), written under
	// mu and read without it by HistLen.
	n atomic.Int64

	mu     sync.Mutex // guards the ring below
	hist   []int64    // ring buffer
	head   int        // next write position
	pushes uint64     // values ever pushed (HistPushes)
}

// NewCtxStore creates a context store with the given number of scalar fields
// per key and history capacity per key. histCap <= 0 selects
// DefaultHistCap.
func NewCtxStore(numFields, histCap int) *CtxStore {
	if histCap <= 0 {
		histCap = DefaultHistCap
	}
	if numFields < 0 {
		numFields = 0
	}
	c := &CtxStore{numFields: numFields, histCap: histCap}
	for i := range c.shards {
		c.shards[i].recs = make(map[int64]*CtxRec)
	}
	return c
}

// NumFields reports the per-key scalar field count.
func (c *CtxStore) NumFields() int { return c.numFields }

// HistCap reports the per-key history capacity.
func (c *CtxStore) HistCap() int { return c.histCap }

func (c *CtxStore) shard(key int64) *ctxShard {
	return &c.shards[(uint64(key)*0x9E3779B97F4A7C15)>>60]
}

// Find returns key's record, or nil when key has none. The record methods
// that read treat nil as an empty record.
func (c *CtxStore) Find(key int64) *CtxRec {
	s := c.shard(key)
	s.mu.RLock()
	r := s.recs[key]
	s.mu.RUnlock()
	return r
}

// Rec returns key's record, creating it if missing.
func (c *CtxStore) Rec(key int64) *CtxRec {
	if r := c.Find(key); r != nil {
		return r
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recs[key]
	if r == nil {
		r = &CtxRec{
			fields: make([]atomic.Int64, c.numFields),
			hist:   make([]int64, c.histCap),
			pushes: s.dropped,
		}
		s.recs[key] = r
	}
	return r
}

// Load returns field of key's record; missing keys or out-of-range fields
// read as zero (matching the VM's fail-soft semantics).
func (c *CtxStore) Load(key, field int64) int64 { return c.Find(key).Load(field) }

// Store writes field of key's record, creating the record on first touch.
// Out-of-range fields are ignored and create nothing.
func (c *CtxStore) Store(key, field, val int64) {
	if c.hasField(field) {
		c.Rec(key).Store(field, val)
	}
}

// Add atomically adds delta to field of key's record and returns the new
// value. Out-of-range fields read zero and create nothing.
func (c *CtxStore) Add(key, field, delta int64) int64 {
	if !c.hasField(field) {
		return 0
	}
	return c.Rec(key).Add(field, delta)
}

// hasField reports whether field is one of the records' fields.
func (c *CtxStore) hasField(field int64) bool { return uint64(field) < uint64(c.numFields) }

// HistPush appends v to key's history ring.
func (c *CtxStore) HistPush(key, v int64) { c.Rec(key).HistPush(v) }

// Hist copies up to len(dst) most recent history values of key into dst,
// oldest first, and returns the number copied.
func (c *CtxStore) Hist(key int64, dst []int64) int { return c.Find(key).Hist(dst) }

// HistLen reports how many history values key currently holds.
func (c *CtxStore) HistLen(key int64) int { return c.Find(key).HistLen() }

// HistPushes counts the values ever pushed to key's history. The count never
// falls, not even across a Drop, so the difference of two readings is at
// least the number of values pushed in between, and exactly that when key
// had a record at the first reading and was not dropped since: the values a
// reader of the history that took the first reading has not seen.
func (c *CtxStore) HistPushes(key int64) uint64 {
	s := c.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.recs[key]; r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.pushes
	}
	return s.dropped
}

// Load returns field; a nil record or an out-of-range field reads zero.
func (r *CtxRec) Load(field int64) int64 {
	if r == nil || uint64(field) >= uint64(len(r.fields)) {
		return 0
	}
	return r.fields[field].Load()
}

// Store writes field; an out-of-range field is ignored.
func (r *CtxRec) Store(field, val int64) {
	if uint64(field) < uint64(len(r.fields)) {
		r.fields[field].Store(val)
	}
}

// Add atomically adds delta to field and returns the new value; an
// out-of-range field is ignored and reads zero.
func (r *CtxRec) Add(field, delta int64) int64 {
	if uint64(field) >= uint64(len(r.fields)) {
		return 0
	}
	return r.fields[field].Add(delta)
}

// HistPush appends v to the history ring.
func (r *CtxRec) HistPush(v int64) {
	r.mu.Lock()
	r.hist[r.head] = v
	if r.head++; r.head == len(r.hist) {
		r.head = 0
	}
	if n := r.n.Load(); n < int64(len(r.hist)) {
		r.n.Store(n + 1)
	}
	r.pushes++
	r.mu.Unlock()
}

// Hist copies up to len(dst) most recent history values into dst, oldest
// first, and returns the number copied; a nil record holds none.
func (r *CtxRec) Hist(dst []int64) int {
	if r == nil || len(dst) == 0 {
		return 0
	}
	r.mu.Lock()
	n := min(int(r.n.Load()), len(dst))
	// The newest value is at head-1: copy the window [head-n, head), which
	// wraps past the ring's end at most once.
	if start := r.head - n; start >= 0 {
		copy(dst, r.hist[start:r.head])
	} else {
		k := copy(dst, r.hist[start+len(r.hist):])
		copy(dst[k:], r.hist[:r.head])
	}
	r.mu.Unlock()
	return n
}

// HistLen reports how many history values the record holds, without its lock.
func (r *CtxRec) HistLen() int {
	if r == nil {
		return 0
	}
	return int(r.n.Load())
}

// Keys returns a sorted snapshot of all keys with records.
func (c *CtxStore) Keys() []int64 {
	var out []int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k := range s.recs {
			out = append(out, k)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Drop removes key's record (e.g. when a process exits). A caller still
// holding the record (Find, Rec) writes into it unseen: a Drop racing a
// writer on the same key may lose the writer's later writes.
func (c *CtxStore) Drop(key int64) {
	s := c.shard(key)
	s.mu.Lock()
	if r := s.recs[key]; r != nil {
		r.mu.Lock()
		s.dropped = max(s.dropped, r.pushes)
		r.mu.Unlock()
		delete(s.recs, key)
	}
	s.mu.Unlock()
}

// Len reports the number of keys with records.
func (c *CtxStore) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.recs)
		s.mu.RUnlock()
	}
	return n
}

// SumField returns the sum of field over all records, plus the record count.
// This is the aggregate query surface used by the differential-privacy layer
// (internal/dp): aggregates leave the store only through noised queries.
func (c *CtxStore) SumField(field int64) (sum int64, count int) {
	if !c.hasField(field) {
		return 0, 0
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, r := range s.recs {
			sum += r.fields[field].Load()
			count++
		}
		s.mu.RUnlock()
	}
	return sum, count
}
