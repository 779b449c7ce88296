package table

import (
	"sort"
	"sync"
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
// The store is sharded by key so the hot path never funnels through one lock.
type CtxStore struct {
	numFields int
	histCap   int

	shards [ctxShards]ctxShard
}

type ctxShard struct {
	mu   sync.RWMutex
	recs map[int64]*ctxRec
	_    [16]byte // keep neighbouring shards off one cache line
}

type ctxRec struct {
	fields []int64
	hist   []int64 // ring buffer
	head   int     // next write position
	n      int     // number of valid entries (<= cap)
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
		c.shards[i].recs = make(map[int64]*ctxRec)
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

// rec returns key's record, creating it if missing. The caller holds s.mu
// for writing.
func (c *CtxStore) rec(s *ctxShard, key int64) *ctxRec {
	r := s.recs[key]
	if r == nil {
		r = &ctxRec{
			fields: make([]int64, c.numFields),
			hist:   make([]int64, c.histCap),
		}
		s.recs[key] = r
	}
	return r
}

// Load returns field of key's record; missing keys or out-of-range fields
// read as zero (matching the VM's fail-soft semantics).
func (c *CtxStore) Load(key, field int64) int64 {
	s := c.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.recs[key]
	if r == nil || field < 0 || int(field) >= len(r.fields) {
		return 0
	}
	return r.fields[field]
}

// Store writes field of key's record, creating the record on first touch.
// Out-of-range fields are ignored.
func (c *CtxStore) Store(key, field, val int64) {
	if field < 0 || int(field) >= c.numFields {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	c.rec(s, key).fields[field] = val
	s.mu.Unlock()
}

// Add atomically adds delta to field of key's record and returns the new
// value.
func (c *CtxStore) Add(key, field, delta int64) int64 {
	if field < 0 || int(field) >= c.numFields {
		return 0
	}
	s := c.shard(key)
	s.mu.Lock()
	r := c.rec(s, key)
	r.fields[field] += delta
	v := r.fields[field]
	s.mu.Unlock()
	return v
}

// HistPush appends v to key's history ring.
func (c *CtxStore) HistPush(key, v int64) {
	s := c.shard(key)
	s.mu.Lock()
	r := c.rec(s, key)
	r.hist[r.head] = v
	r.head = (r.head + 1) % len(r.hist)
	if r.n < len(r.hist) {
		r.n++
	}
	s.mu.Unlock()
}

// Hist copies up to len(dst) most recent history values of key into dst,
// oldest first, and returns the number copied.
func (c *CtxStore) Hist(key int64, dst []int64) int {
	if len(dst) == 0 {
		return 0
	}
	s := c.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.recs[key]
	if r == nil {
		return 0
	}
	n := r.n
	if n > len(dst) {
		n = len(dst)
	}
	// The newest element is at head-1; copy the window [head-n, head).
	start := r.head - n
	if start < 0 {
		start += len(r.hist)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.hist[(start+i)%len(r.hist)]
	}
	return n
}

// HistLen reports how many history values key currently holds.
func (c *CtxStore) HistLen(key int64) int {
	s := c.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.recs[key]; r != nil {
		return r.n
	}
	return 0
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

// Drop removes key's record (e.g. when a process exits).
func (c *CtxStore) Drop(key int64) {
	s := c.shard(key)
	s.mu.Lock()
	delete(s.recs, key)
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
	if field < 0 || int(field) >= c.numFields {
		return 0, 0
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, r := range s.recs {
			sum += r.fields[field]
			count++
		}
		s.mu.RUnlock()
	}
	return sum, count
}
