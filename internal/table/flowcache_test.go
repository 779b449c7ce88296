package table

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestFlowCacheHitMissInvalidation(t *testing.T) {
	c := NewFlowCache[int64](4, 8)
	k := FlowKey{Hook: 1, Key: 42, Arg2: 7}

	if _, ok := probe(c, k, 1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, 1, 99)
	v, ok := probe(c, k, 1)
	if !ok || v != 99 {
		t.Fatalf("Get = %d, %v; want 99, true", v, ok)
	}
	// A generation bump must invalidate lazily, counted.
	if _, ok := probe(c, k, 2); ok {
		t.Fatal("stale generation hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v; want 1 hit, 1 invalidation, 2 misses", st)
	}
	if st.Entries != 0 {
		t.Fatalf("stale entry retained: %+v", st)
	}
	// A hit the caller then finds stale by its own stamp is dropped by Reject
	// (an invalidation, the flow vouched for) and booked by the caller as the
	// miss it was — never as a hit, so there is nothing to take back.
	c.Put(k, 2, 100)
	if _, ok := c.Get(k, 2); !ok {
		t.Fatal("fresh entry missed")
	}
	c.Reject(k)
	c.Book(0, 0, 1, 0)
	st = c.Stats()
	if st.Hits != 1 || st.Invalidations != 2 || st.Misses != 3 || st.Entries != 0 {
		t.Fatalf("stats after Reject = %+v; want 1 hit, 2 invalidations, 3 misses, no entry", st)
	}
	c.Admit(FlowKey{Key: 1}) // the doorkeeper exists from here on
	c.Put(k, 2, 100)
	c.Get(k, 2)
	c.Reject(k)
	if !c.Admit(k) {
		t.Fatal("a rejected flow was not vouched for")
	}
	// Get and Admit book nothing of their own: hits, misses and declines are
	// exactly what callers booked.
	if got := c.Stats(); got.Hits != st.Hits || got.Misses != st.Misses || got.Declined != 0 {
		t.Fatalf("stats after unbooked probes = %+v; want the booked %d hits, %d misses, 0 declined", got, st.Hits, st.Misses)
	}
}

// probe is Get as the kernel uses it: every probe booked as one hit or one
// miss, so Hits + Misses counts the probes.
func probe[V any](c *FlowCache[V], k FlowKey, gen uint64) (V, bool) {
	v, ok := c.Get(k, gen)
	if ok {
		c.Book(0, 1, 0, 0)
	} else {
		c.Book(0, 0, 1, 0)
	}
	return v, ok
}

func TestFlowCacheEviction(t *testing.T) {
	c := NewFlowCache[int](1, 4)
	for i := uint64(0); i < 64; i++ {
		c.Put(FlowKey{Key: i}, 1, int(i))
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions after overfilling a 4-entry shard")
	}
	if st.Entries > 4 {
		t.Fatalf("shard over capacity: %d entries", st.Entries)
	}
}

func TestFlowCacheNilSafe(t *testing.T) {
	var c *FlowCache[int]
	if _, ok := c.Get(FlowKey{Key: 1}, 0); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(FlowKey{Key: 1}, 0, 5) // must not panic
	c.Reject(FlowKey{Key: 1})
	if c.Admit(FlowKey{Key: 1}) || c.Admit(FlowKey{Key: 1}) {
		t.Fatal("nil cache admitted a flow")
	}
	c.Reset()
	if st := c.Stats(); st != (FlowCacheStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestFlowCacheConcurrent(t *testing.T) {
	c := NewFlowCache[uint64](8, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				k := FlowKey{Hook: g, Key: i % 97}
				if v, ok := c.Get(k, i%3); ok && v != k.Key {
					t.Errorf("corrupted value %d for key %d", v, k.Key)
					return
				}
				c.Put(k, i%3, k.Key)
			}
		}(uint64(g))
	}
	wg.Wait()
}

// TestFlowCacheAdmitSecondTouch: the first offer of a flow only leaves its
// fingerprint, the second is admitted, and neither Reset nor the generation
// is part of the decision.
func TestFlowCacheAdmitSecondTouch(t *testing.T) {
	c := NewFlowCache[int](4, 8)
	k := FlowKey{Hook: 1, Key: 42, Arg2: 7}
	if c.Admit(k) {
		t.Fatal("first sighting admitted")
	}
	if !c.Admit(k) {
		t.Fatal("second sighting declined")
	}
	c.Reset()
	if !c.Admit(k) {
		t.Fatal("Reset forgot a flow that recurs")
	}
	if c.Admit(FlowKey{Hook: 1, Key: 42, Arg2: 8}) {
		t.Fatal("a different flow rode on another's fingerprint")
	}
	if st := c.Stats(); st.Declined != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v; want nothing counted (callers book declines) and nothing stored by Admit", st)
	}
}

// TestFlowCacheDoorGrowsWithTraffic: the doorkeeper is sized by the flows it
// has seen — a small array for a few flows, one slot per entry of capacity
// under a flood, never more.
func TestFlowCacheDoorGrowsWithTraffic(t *testing.T) {
	c := NewFlowCache[int](32, 4096)
	if c.door.Load() != nil {
		t.Fatal("doorkeeper allocated before the first Admit")
	}
	for i := uint64(0); i < 512; i++ {
		c.Admit(FlowKey{Key: i})
	}
	if n := len(c.door.Load().slots); n != doorMinSlots {
		t.Fatalf("door after 512 flows = %d slots, want %d", n, doorMinSlots)
	}
	for i := uint64(0); i < 1<<18; i++ {
		c.Admit(FlowKey{Key: i, Arg2: 1})
	}
	if n := len(c.door.Load().slots); n != 32*4096 {
		t.Fatalf("door under a flood = %d slots, want the cache's capacity %d", n, 32*4096)
	}
	small := NewFlowCache[int](4, 8)
	for i := uint64(0); i < 1000; i++ {
		small.Admit(FlowKey{Key: i})
	}
	if n := len(small.door.Load().slots); n != 32 {
		t.Fatalf("door of a 32-entry cache = %d slots", n)
	}
}

// TestFlowCacheReadmitsSharersOnOneMiss: two cached flows that share a
// doorkeeper slot both come back after a generation bump on their first miss,
// because Get vouches for a flow whose stale entry it drops.
func TestFlowCacheReadmitsSharersOnOneMiss(t *testing.T) {
	c := NewFlowCache[uint64](4, 1024)
	a := FlowKey{Hook: 1, Key: 0}
	c.Admit(a)
	slotOf := func(k FlowKey) *atomic.Uint32 { s, _ := c.door.Load().slot(k.hash()); return s }
	b := FlowKey{Hook: 1, Key: 1}
	for slotOf(b) != slotOf(a) {
		b.Key++
	}
	for _, k := range []FlowKey{a, b} {
		for i := 0; i < 2 && !c.Admit(k); i++ {
		}
		c.Put(k, 1, k.Key)
	}
	for round := 0; round < 3; round++ {
		gen := uint64(2 + round)
		for _, k := range []FlowKey{a, b} {
			if _, ok := admitGetPut(c, k, gen); ok {
				t.Fatalf("round %d: stale hit for %+v", round, k)
			}
			if v, ok := c.Get(k, gen); !ok || v != k.Key {
				t.Fatalf("round %d: %+v not stored again on its first miss", round, k)
			}
		}
	}
}

// admitGetPut is the verdict cache's use of the filter: probe, and on a miss
// store only what Admit lets through, booking each outcome.
func admitGetPut(c *FlowCache[uint64], k FlowKey, gen uint64) (uint64, bool) {
	v, ok := probe(c, k, gen)
	if !ok {
		if c.Admit(k) {
			c.Put(k, gen, k.Key)
		} else {
			c.Book(0, 0, 0, 1)
		}
	}
	return v, ok
}

// TestFlowCacheAdmitConcurrent hammers the filter and the store from 8
// goroutines over overlapping keys (run under -race): slots are independent
// atomics, so the worst a race may do is admit a flow one miss early or late
// — never corrupt a value.
func TestFlowCacheAdmitConcurrent(t *testing.T) {
	c := NewFlowCache[uint64](8, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < 4000; i++ {
				k := FlowKey{Hook: g % 2, Key: i % 197}
				if v, ok := admitGetPut(c, k, i/1000); ok && v != k.Key {
					t.Errorf("corrupted value %d for key %d", v, k.Key)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Declined == 0 || st.Declined > st.Misses {
		t.Fatalf("stats = %+v; want hits, declines, and no more declines than misses", st)
	}
}

// TestFlowCacheAdmitDoesNotStarveFullWorkingSet: a cyclic working set that
// exactly fills every shard must end up cached. With one filter slot per
// entry of capacity many flows share a slot; if sharers simply overwrote one
// another, none of them would ever find its fingerprint on the next round.
func TestFlowCacheAdmitDoesNotStarveFullWorkingSet(t *testing.T) {
	const shards, perShard, rounds = 8, 512, 5
	c := NewFlowCache[uint64](shards, perShard)
	var fill [shards]int
	var keys []FlowKey
	for i := uint64(0); len(keys) < shards*perShard; i++ {
		k := FlowKey{Hook: 3, Key: i, Arg3: int64(i % 5)}
		if s := k.hash() & c.mask; fill[s] < perShard {
			fill[s]++
			keys = append(keys, k)
		}
	}
	var ratio float64
	for r := 0; r < rounds; r++ {
		before := c.Stats().Hits
		for _, k := range keys {
			admitGetPut(c, k, 1)
		}
		ratio = float64(c.Stats().Hits-before) / float64(len(keys))
	}
	if ratio < 0.9 {
		t.Fatalf("hit ratio in round %d = %.3f; want >= 0.9", rounds, ratio)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("working set sized to capacity evicted %d entries", st.Evictions)
	}
}

func TestTableOnMutate(t *testing.T) {
	tb := New("exact", "hk", MatchExact)
	n := 0
	tb.SetOnMutate(func() { n++ })
	_ = tb.Insert(&Entry{Key: 1})
	tb.SetDefault(&Action{Kind: ActionPass})
	tb.UpdateAction(1, Action{Kind: ActionParam, Param: 1})
	tb.Delete(&Entry{Key: 1})
	if n != 4 {
		t.Fatalf("onMutate fired %d times; want 4", n)
	}
	tb.SetOnMutate(nil)
	_ = tb.Insert(&Entry{Key: 2})
	if n != 4 {
		t.Fatalf("onMutate fired after clear: %d", n)
	}
}

// TestFlowShardIsWholeCacheLines: shards sit in one slice, so a shard that is
// not a whole number of 64-byte lines shares one with its neighbour; and
// inside a shard the table pointer readers share must not sit on the line the
// counters dirty on every probe.
func TestFlowShardIsWholeCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"int64":     unsafe.Sizeof(flowShard[int64]{}),
		"*Entry":    unsafe.Sizeof(flowShard[*Entry]{}),
		"[5]uint64": unsafe.Sizeof(flowShard[[5]uint64]{}),
	} {
		if size == 0 || size%64 != 0 {
			t.Errorf("unsafe.Sizeof(flowShard[%s]{}) = %d, want a multiple of 64", name, size)
		}
	}
	var s flowShard[int64]
	if tab, hits := unsafe.Offsetof(s.tab)/64, unsafe.Offsetof(s.hits)/64; tab == hits {
		t.Errorf("tab and hits share cache line %d of the shard", tab)
	}
}

// The store this file's FlowCache replaced, kept as the reference model: one
// Go map per shard, every operation — hits included — under the shard mutex.
// It is verbatim but for the booking rule, which it follows as FlowCache does
// (Get and Admit count no outcome, callers Book, Reject takes nothing back).
// Only the admission filter is not copied: it never touched the store, so the
// reference borrows the doorkeeper of a FlowCache it stores nothing in.

type flowVal[V any] struct {
	gen uint64
	v   V
}

type mapFlowShard[V any] struct {
	mu sync.Mutex
	m  map[FlowKey]flowVal[V]

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	declined      atomic.Int64
}

type mapFlowCache[V any] struct {
	mask     uint64
	perShard int
	shards   []mapFlowShard[V]
	filter   *FlowCache[V]
}

func newMapFlowCache[V any](shards, perShard int) *mapFlowCache[V] {
	f := NewFlowCache[V](shards, perShard)
	c := &mapFlowCache[V]{mask: f.mask, perShard: f.perShard, shards: make([]mapFlowShard[V], len(f.shards)), filter: f}
	for i := range c.shards {
		c.shards[i].m = make(map[FlowKey]flowVal[V])
	}
	return c
}

func (c *mapFlowCache[V]) Get(k FlowKey, gen uint64) (V, bool) {
	var zero V
	h := k.hash()
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	e, ok := s.m[k]
	if ok && e.gen == gen {
		s.mu.Unlock()
		return e.v, true
	}
	if ok {
		delete(s.m, k)
		s.mu.Unlock()
		c.invalidated(s, h)
		return zero, false
	}
	s.mu.Unlock()
	return zero, false
}

func (c *mapFlowCache[V]) invalidated(s *mapFlowShard[V], h uint64) {
	if d := c.filter.door.Load(); d != nil {
		if slot, fp := d.slot(h); slot.Load() != fp {
			slot.Store(fp)
		}
	}
	s.invalidations.Add(1)
}

func (c *mapFlowCache[V]) Reject(k FlowKey) {
	h := k.hash()
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
	c.invalidated(s, h)
}

func (c *mapFlowCache[V]) Book(lane int, hits, misses, declined int64) {
	s := &c.shards[uint64(lane)&c.mask]
	s.hits.Add(hits)
	s.misses.Add(misses)
	s.declined.Add(declined)
}

func (c *mapFlowCache[V]) Put(k FlowKey, gen uint64, v V) {
	s := &c.shards[k.hash()&c.mask]
	s.mu.Lock()
	if _, ok := s.m[k]; !ok && len(s.m) >= c.perShard {
		s.evictions.Add(int64(len(s.m)))
		clear(s.m)
	}
	s.m[k] = flowVal[V]{gen: gen, v: v}
	s.mu.Unlock()
}

func (c *mapFlowCache[V]) Admit(k FlowKey) bool { return c.filter.Admit(k) }

func (c *mapFlowCache[V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.evictions.Add(int64(len(s.m)))
		clear(s.m)
		s.mu.Unlock()
	}
}

func (c *mapFlowCache[V]) Stats() FlowCacheStats {
	var st FlowCacheStats
	for i := range c.shards {
		s := &c.shards[i]
		st.Declined += s.declined.Load()
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Invalidations += s.invalidations.Load()
		st.Evictions += s.evictions.Load()
		s.mu.Lock()
		st.Entries += int64(len(s.m))
		s.mu.Unlock()
	}
	return st
}

// flowStore is what the differential schedule drives: the FlowCache, the map
// reference, or a FlowCache with one of its rules broken.
type flowStore interface {
	Get(FlowKey, uint64) (uint64, bool)
	Put(FlowKey, uint64, uint64)
	Admit(FlowKey) bool
	Reject(FlowKey)
	Reset()
	Book(lane int, hits, misses, declined int64)
	Stats() FlowCacheStats
}

// flowSchedule is one differential run: the cache's shape, how many distinct
// flows the schedule draws from, and five bytes per operation (opcode, three
// of flow index, generation).
type flowSchedule struct {
	shards, perShard, flows int
	ops                     []byte
}

// decodeFlowSchedule reads a schedule from a byte string: three header bytes
// choose the shape (shards 1/4/32, perShard 4/64/4096, and a flow space of 8,
// half, once or 1.5 times the capacity), the rest are operations.
func decodeFlowSchedule(data []byte) flowSchedule {
	if len(data) < 3 {
		return flowSchedule{shards: 1, perShard: 4, flows: 8}
	}
	sc := flowSchedule{
		shards:   []int{1, 4, 32}[int(data[0])%3],
		perShard: []int{4, 64, 4096}[int(data[1])%3],
		ops:      data[3:],
	}
	capacity := sc.shards * sc.perShard
	sc.flows = []int{8, capacity / 2, capacity, capacity + capacity/2}[int(data[2])%4]
	return sc
}

func scheduleFlow(i int) FlowKey {
	return FlowKey{Hook: uint64(1 + i%3), Key: uint64(i), Arg2: int64(i & 7), Arg3: 3}
}

// flat makes a (value, ok) return pair comparable as one value.
func flat(v uint64, ok bool) [2]uint64 {
	if ok {
		return [2]uint64{v, 1}
	}
	return [2]uint64{v, 0}
}

// runFlowSchedule drives got and the map reference through sc and returns the
// first difference in any return value or in Stats, which it compares after
// every operation. Outcomes are booked as the kernel books them, from each
// store's own return values: a Get as one hit or one miss (a hit then
// Rejected as a miss), an Admit that declines as one decline.
func runFlowSchedule(sc flowSchedule, got flowStore) error {
	want := newMapFlowCache[uint64](sc.shards, sc.perShard)
	for n := 0; n+5 <= len(sc.ops); n += 5 {
		b := sc.ops[n : n+5]
		i := (int(b[1]) | int(b[2])<<8 | int(b[3])<<16) % sc.flows
		k, gen := scheduleFlow(i), uint64(b[4]%4)
		v := uint64(i)<<8 | gen<<4 | uint64(b[0]>>4)
		book := func(s flowStore, hit, declined bool) {
			if hit {
				s.Book(i, 1, 0, 0)
			} else if declined {
				s.Book(i, 0, 0, 1)
			} else {
				s.Book(i, 0, 1, 0)
			}
		}
		var what string
		var g, w [2]uint64 // return values, flattened
		switch op := b[0] % 16; {
		case op < 6: // the verdict cache's protocol: probe, store what Admit lets through
			what = "Get+Admit+Put"
			g, w = flat(got.Get(k, gen)), flat(want.Get(k, gen))
			book(got, g[1] == 1, false)
			book(want, w[1] == 1, false)
			if g[1] == 0 && w[1] == 0 {
				ga, wa := got.Admit(k), want.Admit(k)
				if ga != wa {
					return fmt.Errorf("op %d: Admit(%d) = %v, reference %v", n/5, i, ga, wa)
				}
				if ga {
					got.Put(k, gen, v)
					want.Put(k, gen, v)
				} else {
					book(got, false, true)
					book(want, false, true)
				}
			}
		case op < 9:
			what = "Get"
			g, w = flat(got.Get(k, gen)), flat(want.Get(k, gen))
			book(got, g[1] == 1, false)
			book(want, w[1] == 1, false)
		case op < 12: // a Put without Admit: unconditional
			what = "Put"
			got.Put(k, gen, v)
			want.Put(k, gen, v)
		case op == 12:
			what = "Admit"
			g, w = flat(0, got.Admit(k)), flat(0, want.Admit(k))
			if g[1] == 0 && w[1] == 0 {
				book(got, false, true)
				book(want, false, true)
			}
		case op < 15: // a hit the caller finds stale by its own stamp
			what = "Get+Reject"
			g, w = flat(got.Get(k, gen)), flat(want.Get(k, gen))
			if g[1] == 1 && w[1] == 1 {
				got.Reject(k)
				want.Reject(k)
			}
			book(got, false, false)
			book(want, false, false)
		case b[4] < 16: // Reset is rare: one in 256 operations
			what = "Reset"
			got.Reset()
			want.Reset()
		default:
			what = "Reject"
			got.Reject(k)
			want.Reject(k)
		}
		if g != w {
			return fmt.Errorf("op %d: %s(flow %d, gen %d) = %v, reference %v", n/5, what, i, gen, g, w)
		}
		if gs, ws := got.Stats(), want.Stats(); gs != ws {
			return fmt.Errorf("op %d: after %s(flow %d, gen %d) stats = %+v, reference %+v", n/5, what, i, gen, gs, ws)
		}
	}
	return nil
}

// seededFlowSchedule builds the byte string of a schedule of n operations on
// the given shape (the header bytes index decodeFlowSchedule's choices).
func seededFlowSchedule(seed int64, shards, perShard, flows byte, n int) []byte {
	data := make([]byte, 3+5*n)
	rand.New(rand.NewSource(seed)).Read(data)
	data[0], data[1], data[2] = shards, perShard, flows
	return data
}

// flowScheduleCorpus calls run on the schedules the differential tests share:
// short ones over every shape and flow-space size, and one per shape long
// enough to fill the cache several times over (growth through every table
// size, wholesale clears, rebuilds forced by tombstones).
func flowScheduleCorpus(short int, run func(name string, data []byte) bool) {
	for seed := 0; seed < short; seed++ {
		sh, per, fl := byte(seed%3), byte(seed/3%3), byte(seed/9%4)
		if !run(fmt.Sprintf("short seed %d", seed), seededFlowSchedule(int64(seed), sh, per, fl, 300)) {
			return
		}
	}
	for sh := byte(0); sh < 3; sh++ {
		for per := byte(0); per < 3; per++ {
			sc := decodeFlowSchedule([]byte{sh, per, 3})
			n := min(4*sc.shards*sc.perShard, 200000)
			if !run(fmt.Sprintf("long %dx%d", sc.shards, sc.perShard), seededFlowSchedule(int64(1000+3*int(sh)+int(per)), sh, per, 3, n)) {
				return
			}
		}
	}
}

// TestFlowCacheMatchesMapReference: on any single-threaded sequence of
// Get/Put/Admit/Reject/Reset the open-addressed store returns what the
// map-under-mutex store returned and counts what it counted — every value,
// every hit and miss, and the whole of Stats after every operation.
func TestFlowCacheMatchesMapReference(t *testing.T) {
	short := 10000
	if testing.Short() {
		short = 1000
	}
	flowScheduleCorpus(short, func(name string, data []byte) bool {
		sc := decodeFlowSchedule(data)
		if err := runFlowSchedule(sc, NewFlowCache[uint64](sc.shards, sc.perShard)); err != nil {
			t.Errorf("%s (%d shards x %d, %d flows): %v", name, sc.shards, sc.perShard, sc.flows, err)
			return false
		}
		return true
	})
}

// FuzzFlowCacheDifferential is the same comparison over fuzzer-chosen shapes
// and schedules.
func FuzzFlowCacheDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	// Short seeds: the fuzzer's minimizer spends its budget per input byte.
	f.Add(seededFlowSchedule(1, 0, 0, 3, 60))
	f.Add(seededFlowSchedule(2, 1, 0, 2, 100))
	f.Add(seededFlowSchedule(3, 2, 1, 0, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeFlowSchedule(data)
		if err := runFlowSchedule(sc, NewFlowCache[uint64](sc.shards, sc.perShard)); err != nil {
			t.Fatal(err)
		}
	})
}

// brokenFlowCache is a FlowCache[uint64] with one rule of the store broken,
// for the mutation check below.
type brokenFlowCache struct {
	*FlowCache[uint64]
	rule string
}

// Get without the generation compare: any entry for the key is a hit.
func (b brokenFlowCache) Get(k FlowKey, gen uint64) (uint64, bool) {
	c := b.FlowCache
	h := k.hash()
	s := &c.shards[h&c.mask]
	if t := s.tab.Load(); b.rule == "no generation compare" && t != nil {
		if _, e := probeFlow(t, k, h); e != nil {
			return e.v, true
		}
	}
	return c.Get(k, gen)
}

// Put that claims a slot without first walking the key's whole chain: either
// it never looks for the key at all, or it stops at the first tombstone and
// takes that. Inserts that need a new table go through the real Put.
func (b brokenFlowCache) Put(k FlowKey, gen, v uint64) {
	c := b.FlowCache
	h := k.hash()
	s := &c.shards[h&c.mask]
	t := s.tab.Load()
	if b.rule == "no generation compare" || t == nil || s.live >= c.perShard || 2*(s.live+s.tombs+1) > len(t.slots) {
		c.Put(k, gen, v)
		return
	}
	mask := uint64(len(t.slots) - 1)
	for i := h >> flowSlotShift; ; i++ {
		slot := &t.slots[i&mask]
		switch e := slot.Load(); {
		case e == nil:
		case e == &t.tomb && b.rule == "tombstone reuse":
			s.tombs--
		case e != &t.tomb && e.key == k && b.rule != "no key scan":
			s.live--
		default:
			continue
		}
		slot.Store(&flowEntry[uint64]{key: k, gen: gen, v: v})
		s.live++
		return
	}
}

// TestFlowCacheReferenceCatchesEachMutation is the mutation check of the
// differential test: a store that skips the generation compare, that inserts
// without looking for the key, or that claims the first tombstone on the
// key's chain each differs from the reference somewhere in the corpus.
func TestFlowCacheReferenceCatchesEachMutation(t *testing.T) {
	for _, rule := range []string{"no generation compare", "no key scan", "tombstone reuse"} {
		caught := false
		flowScheduleCorpus(200, func(name string, data []byte) bool {
			sc := decodeFlowSchedule(data)
			if err := runFlowSchedule(sc, brokenFlowCache{NewFlowCache[uint64](sc.shards, sc.perShard), rule}); err != nil {
				t.Logf("%s, %s: %v", rule, name, err)
				caught = true
			}
			return !caught
		})
		if !caught {
			t.Errorf("a store with %s passes the differential corpus", rule)
		}
	}
}

// TestFlowCacheReadersVersusWriters (run under -race): eight goroutines Get
// without a lock while two Put, Reject and Reset the same flows through table
// growth, tombstone rebuilds and wholesale clears. A value encodes the flow
// and generation it was stored for, so every hit can be checked to be
// something some Put stored for exactly that key and generation.
func TestFlowCacheReadersVersusWriters(t *testing.T) {
	const (
		shards, perShard = 4, 64
		flows            = shards*perShard + shards*perShard/2
		gens             = 3
		writerOps        = 20000
	)
	enc := func(i int, gen uint64) uint64 { return uint64(i)<<8 | gen }
	c := NewFlowCache[uint64](shards, perShard)
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	var hits atomic.Int64
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < writerOps; n++ {
				i, gen := rng.Intn(flows), uint64(rng.Intn(gens))
				switch op := rng.Intn(1000); {
				case op == 0:
					c.Reset()
				case op < 150:
					c.Reject(scheduleFlow(i))
				default:
					c.Put(scheduleFlow(i), gen, enc(i, gen))
				}
			}
		}(int64(w))
	}
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine int64
			for !done.Load() {
				i, gen := rng.Intn(flows), uint64(rng.Intn(gens))
				if v, ok := c.Get(scheduleFlow(i), gen); ok {
					mine++
					if v != enc(i, gen) {
						t.Errorf("Get(flow %d, gen %d) = %#x, which no Put stored for it", i, gen, v)
						return
					}
				}
			}
			hits.Add(mine)
		}(int64(100 + r))
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	st := c.Stats()
	if hits.Load() == 0 || st.Evictions == 0 || st.Invalidations == 0 {
		t.Fatalf("%d checked hits, stats %+v; want hits, wholesale clears and stale drops to have happened", hits.Load(), st)
	}
	// Quiescent: one key, one slot, nothing over capacity.
	if st.Entries > shards*perShard {
		t.Fatalf("%d entries in a cache of %d", st.Entries, shards*perShard)
	}
	var live int64
	stored := map[FlowKey]int{}
	for s := range c.shards {
		tab := c.shards[s].tab.Load()
		if tab == nil {
			continue
		}
		for j := range tab.slots {
			if e := tab.slots[j].Load(); e != nil && e != &tab.tomb {
				live++
				if stored[e.key]++; stored[e.key] > 1 {
					t.Fatalf("flow %+v is stored in two slots", e.key)
				}
			}
		}
	}
	if live != st.Entries {
		t.Fatalf("%d entries in the slots, Stats counts %d", live, st.Entries)
	}
}

// TestGetTakesNoShardLock: with every shard's mutex held, hits, plain misses
// and Admits still return — the fire path's three cache calls that are not a
// store wait for no writer. (internal/core pins the other half: a cached Fire
// and a declined miss allocate nothing.)
func TestGetTakesNoShardLock(t *testing.T) {
	c := NewFlowCache[uint64](8, 256)
	for i := 0; i < 1000; i++ {
		c.Put(scheduleFlow(i), 1, uint64(i))
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
		defer c.shards[i].mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if v, ok := c.Get(scheduleFlow(i), 1); !ok || v != uint64(i) {
				t.Errorf("Get(flow %d) = %d, %v under held locks", i, v, ok)
			}
			if _, ok := c.Get(scheduleFlow(1000+i), 1); ok {
				t.Errorf("flow %d was never stored and hit", 1000+i)
			}
			c.Admit(scheduleFlow(2000 + i))
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Get or Admit blocked on a held shard lock")
	}
	hit, miss := scheduleFlow(1), scheduleFlow(1001)
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Get(hit, 1)
		c.Get(miss, 1)
		c.Admit(miss)
	}); allocs != 0 {
		t.Errorf("a hit, a miss and an Admit allocate %.1f objects, want 0", allocs)
	}
}

// TestFlowCacheMemoryFollowsTraffic: a shard holds no slot array until
// something is stored in it, the array doubles with the entries stored and
// stays at most half used, a wholesale clear keeps the size the traffic had
// earned, and invalidation churn on a full shard — every drop leaves a
// tombstone — settles at a bounded size instead of growing or rebuilding per
// drop.
func TestFlowCacheMemoryFollowsTraffic(t *testing.T) {
	const perShard = 64
	c := NewFlowCache[int](1, perShard)
	s := &c.shards[0]
	c.Get(FlowKey{Key: 1}, 1)
	c.Admit(FlowKey{Key: 1})
	c.Reset()
	if s.tab.Load() != nil {
		t.Fatal("a shard that stored nothing has a table")
	}
	for i := 1; i <= perShard; i++ {
		c.Put(FlowKey{Key: uint64(i)}, 1, i)
		if n := len(s.tab.Load().slots); n < 2*i || n > max(minSlots, 4*i) {
			t.Fatalf("%d entries in %d slots; want between twice and four times the entries", i, n)
		}
	}
	full := len(s.tab.Load().slots)
	c.Put(FlowKey{Key: perShard + 1}, 1, 0) // clears the full shard
	if st := c.Stats(); st.Evictions != perShard || st.Entries != 1 {
		t.Fatalf("stats after overfilling = %+v; want %d evicted, 1 entry", st, perShard)
	}
	if n := len(s.tab.Load().slots); n != full {
		t.Fatalf("wholesale clear resized the table from %d to %d slots", full, n)
	}
	for i := 2; i <= perShard; i++ {
		c.Put(FlowKey{Key: uint64(i)}, 1, i)
	}
	rebuilds, last := 0, s.tab.Load()
	for gen := uint64(2); gen < 12; gen++ {
		for i := 2; i <= perShard+1; i++ {
			k := FlowKey{Key: uint64(i)}
			if _, ok := c.Get(k, gen); ok {
				t.Fatalf("stale hit for key %d", i)
			}
			c.Put(k, gen, i)
			if cur := s.tab.Load(); cur != last {
				rebuilds, last = rebuilds+1, cur
			}
		}
	}
	if n := len(last.slots); n > 4*perShard {
		t.Fatalf("invalidation churn grew the table to %d slots for %d entries", n, perShard)
	}
	if rebuilds > 12 {
		t.Fatalf("%d rebuilds for %d drop-and-store cycles on a full shard; want one per ~%d", rebuilds, 10*perShard, perShard)
	}
	if st := c.Stats(); st.Entries != perShard || st.Evictions != perShard {
		t.Fatalf("stats after churn = %+v; want the working set intact", st)
	}
}
