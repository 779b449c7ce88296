package table

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestFlowCacheHitMissInvalidation(t *testing.T) {
	c := NewFlowCache[int64](4, 8)
	k := FlowKey{Hook: 1, Key: 42, Arg2: 7}

	if _, ok := c.Get(k, 1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, 1, 99)
	v, ok := c.Get(k, 1)
	if !ok || v != 99 {
		t.Fatalf("Get = %d, %v; want 99, true", v, ok)
	}
	// A generation bump must invalidate lazily, counted.
	if _, ok := c.Get(k, 2); ok {
		t.Fatal("stale generation hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v; want 1 hit, 1 invalidation, 2 misses", st)
	}
	if st.Entries != 0 {
		t.Fatalf("stale entry retained: %+v", st)
	}
	// A hit the caller then finds stale by its own stamp is taken back: booked
	// like the stale arm above, never as a hit, and the flow is vouched for.
	c.Put(k, 2, 100)
	if _, ok := c.Get(k, 2); !ok {
		t.Fatal("fresh entry missed")
	}
	c.Reject(k)
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
	if st := c.Stats(); st.Declined != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v; want 2 declined and nothing stored by Admit", st)
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
// store only what Admit lets through.
func admitGetPut(c *FlowCache[uint64], k FlowKey, gen uint64) (uint64, bool) {
	v, ok := c.Get(k, gen)
	if !ok && c.Admit(k) {
		c.Put(k, gen, k.Key)
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

// TestTableScanMemo verifies that non-exact lookups are memoized per version
// and invalidate when the table mutates.
func TestTableScanMemo(t *testing.T) {
	tb := New("ranges", "hk", MatchRange)
	if err := tb.Insert(&Entry{Lo: 0, Hi: 99, Action: Action{Kind: ActionParam, Param: 1}}); err != nil {
		t.Fatal(err)
	}

	if e := tb.Lookup(50); e == nil || e.Action.Param != 1 {
		t.Fatalf("lookup before memo: %+v", e)
	}
	if e := tb.Lookup(50); e == nil || e.Action.Param != 1 {
		t.Fatalf("memoized lookup: %+v", e)
	}
	if st := tb.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("memo stats = %+v; want 1 hit, 1 miss", st)
	}

	// Mutating the table bumps the version; the memoized decision must not
	// survive.
	ver := tb.Version()
	if err := tb.Insert(&Entry{Lo: 40, Hi: 60, Priority: 10, Action: Action{Kind: ActionParam, Param: 2}}); err != nil {
		t.Fatal(err)
	}
	if tb.Version() == ver {
		t.Fatal("Insert did not bump version")
	}
	if e := tb.Lookup(50); e == nil || e.Action.Param != 2 {
		t.Fatalf("lookup after insert returned stale entry: %+v", e)
	}

	// Entry hit counters must be exact despite memoization.
	ents := tb.Entries()
	var total int64
	for _, e := range ents {
		total += e.Hits()
	}
	if total != 3 {
		t.Fatalf("total entry hits = %d; want 3", total)
	}
}

// TestTableSnapshotPreservesHits verifies that mutations (which publish new
// copy-on-write snapshots) do not reset hit counters of untouched rows, and
// that cloned rows carry their counts over.
func TestTableSnapshotPreservesHits(t *testing.T) {
	tb := New("exact", "hk", MatchExact)
	if err := tb.Insert(&Entry{Key: 1, Action: Action{Kind: ActionParam, Param: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(&Entry{Key: 2, Action: Action{Kind: ActionParam, Param: 20}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tb.Lookup(1)
	}
	tb.Lookup(2)

	// An unrelated mutation must not disturb key 1's count.
	if err := tb.Insert(&Entry{Key: 3, Action: Action{Kind: ActionParam, Param: 30}}); err != nil {
		t.Fatal(err)
	}
	if h := tb.Probe(1).Hits(); h != 5 {
		t.Fatalf("hits after unrelated insert = %d; want 5", h)
	}
	// UpdateAction clones the row; the clone must carry the count.
	if !tb.UpdateAction(1, Action{Kind: ActionParam, Param: 11}) {
		t.Fatal("UpdateAction missed existing key")
	}
	if h := tb.Probe(1).Hits(); h != 5 {
		t.Fatalf("hits after UpdateAction = %d; want 5", h)
	}
	// RewriteActions likewise.
	tb.RewriteActions(func(a Action) (Action, bool) {
		a.Param++
		return a, true
	})
	if h := tb.Probe(1).Hits(); h != 5 {
		t.Fatalf("hits after RewriteActions = %d; want 5", h)
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
