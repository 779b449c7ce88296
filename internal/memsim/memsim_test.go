package memsim

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// scripted prefetcher returns canned pages per access index.
type scripted struct {
	plans [][]int64
	calls int
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) OnAccess(pid, page int64, hit bool) []int64 {
	var out []int64
	if s.calls < len(s.plans) {
		out = s.plans[s.calls]
	}
	s.calls++
	return out
}

type nonePolicy struct{}

func (nonePolicy) Name() string                               { return "none" }
func (nonePolicy) OnAccess(pid, page int64, hit bool) []int64 { return nil }

func cfgSmall() Config {
	return Config{
		CacheSlots:        4,
		HitNs:             1,
		MissNs:            100,
		PrefetchIssueNs:   2,
		PrefetchLatencyNs: 10,
		MaxPrefetch:       8,
	}
}

func TestDemandMissesAndHits(t *testing.T) {
	trace := []Access{
		{PID: 1, Page: 10}, // miss
		{PID: 1, Page: 10}, // hit
		{PID: 1, Page: 11}, // miss
	}
	r := Run(cfgSmall(), nonePolicy{}, trace)
	if r.DemandMisses != 2 || r.Hits != 1 || r.Accesses != 3 {
		t.Fatalf("result = %+v", r)
	}
	// Clock: 2 misses * 100 + 1 hit * 1 = 201.
	if r.ClockNs != 201 {
		t.Fatalf("clock = %d", r.ClockNs)
	}
	if r.Accuracy() != 0 || r.Coverage() != 0 {
		t.Fatal("no-prefetch run should have zero accuracy/coverage")
	}
}

func TestPrefetchHitAccounting(t *testing.T) {
	s := &scripted{plans: [][]int64{{11, 12}}} // prefetch on the first access
	trace := []Access{
		{PID: 1, Page: 10, Work: 1000}, // miss, then prefetch 11,12
		{PID: 1, Page: 11, Work: 1000}, // prefetch hit (arrived: work > latency)
		{PID: 1, Page: 13, Work: 1000}, // demand miss
	}
	r := Run(cfgSmall(), s, trace)
	if r.PrefetchIssued != 2 || r.PrefetchUsed != 1 {
		t.Fatalf("issued=%d used=%d", r.PrefetchIssued, r.PrefetchUsed)
	}
	if r.PrefetchLate != 0 {
		t.Fatalf("late=%d, prefetch had %dns to arrive", r.PrefetchLate, 1000)
	}
	if got, want := r.Accuracy(), 0.5; got != want {
		t.Fatalf("accuracy %.2f", got)
	}
	// Coverage: 1 prefetch hit / (1 + 2 demand misses).
	if got := r.Coverage(); got != 1.0/3 {
		t.Fatalf("coverage %.3f", got)
	}
}

func TestLatePrefetchStalls(t *testing.T) {
	cfg := cfgSmall()
	cfg.PrefetchLatencyNs = 1000
	s := &scripted{plans: [][]int64{{11}}}
	trace := []Access{
		{PID: 1, Page: 10, Work: 1}, // miss + prefetch 11 (arrives t+1000)
		{PID: 1, Page: 11, Work: 1}, // hits the in-flight page, stalls
	}
	r := Run(cfg, s, trace)
	if r.PrefetchLate != 1 || r.LateStallNs == 0 {
		t.Fatalf("late=%d stall=%d", r.PrefetchLate, r.LateStallNs)
	}
	// A late prefetch still counts as used (partial benefit).
	if r.PrefetchUsed != 1 {
		t.Fatalf("used=%d", r.PrefetchUsed)
	}
	// The stall is bounded by the prefetch latency (it can never exceed
	// the remaining in-flight time).
	if r.LateStallNs >= cfg.PrefetchLatencyNs {
		t.Fatalf("stall %d >= latency %d", r.LateStallNs, cfg.PrefetchLatencyNs)
	}
}

func TestLRUEviction(t *testing.T) {
	// Cache of 4: touching 5 distinct pages evicts the oldest.
	trace := []Access{
		{PID: 1, Page: 1}, {PID: 1, Page: 2}, {PID: 1, Page: 3}, {PID: 1, Page: 4},
		{PID: 1, Page: 5},
		{PID: 1, Page: 1}, // evicted: miss again
		{PID: 1, Page: 5}, // still resident: hit
	}
	r := Run(cfgSmall(), nonePolicy{}, trace)
	if r.DemandMisses != 6 || r.Hits != 1 {
		t.Fatalf("misses=%d hits=%d", r.DemandMisses, r.Hits)
	}
}

func TestMaxPrefetchCap(t *testing.T) {
	cfg := cfgSmall()
	cfg.MaxPrefetch = 2
	s := &scripted{plans: [][]int64{{11, 12, 13, 14, 15}}}
	r := Run(cfg, s, []Access{{PID: 1, Page: 10}})
	if r.PrefetchIssued != 2 {
		t.Fatalf("rate-limit cap bypassed: issued=%d", r.PrefetchIssued)
	}
}

func TestDedupResidentPages(t *testing.T) {
	s := &scripted{plans: [][]int64{{11}, {11}}} // second prefetch is a no-op
	trace := []Access{
		{PID: 1, Page: 10, Work: 100},
		{PID: 1, Page: 20, Work: 100},
	}
	r := Run(cfgSmall(), s, trace)
	if r.PrefetchIssued != 1 {
		t.Fatalf("issued=%d, resident pages must not re-issue", r.PrefetchIssued)
	}
}

func TestPerPIDIsolation(t *testing.T) {
	// The same page number under different PIDs is a different page.
	trace := []Access{
		{PID: 1, Page: 10},
		{PID: 2, Page: 10},
	}
	r := Run(cfgSmall(), nonePolicy{}, trace)
	if r.DemandMisses != 2 {
		t.Fatalf("misses=%d, PID namespaces leak", r.DemandMisses)
	}
}

func TestOutcomeCallback(t *testing.T) {
	cfg := cfgSmall()
	cfg.CacheSlots = 2
	var used, wasted int
	cfg.OutcomeFn = func(pid, page int64, ok bool) {
		if ok {
			used++
		} else {
			wasted++
		}
	}
	s := &scripted{plans: [][]int64{{11, 12}}}
	trace := []Access{
		{PID: 1, Page: 10, Work: 100}, // prefetch 11, 12 (cache: 2 slots!)
		{PID: 1, Page: 11, Work: 100}, // use 11; inserting 10,11,12 already evicted something
		{PID: 1, Page: 30, Work: 100},
		{PID: 1, Page: 31, Work: 100}, // force evictions of any unused prefetch
	}
	Run(cfg, s, trace)
	if used+wasted == 0 {
		t.Fatal("outcome callback never fired")
	}
	if wasted == 0 {
		t.Fatal("expected at least one wasted prefetch with a 2-slot cache")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if c.CacheSlots != 1024 || c.MissNs != 60000 || c.PrefetchLatencyNs != c.MissNs {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Policy: "x", PrefetchIssued: 10, PrefetchUsed: 5, DemandMisses: 5}
	if r.Accuracy() != 0.5 || r.Coverage() != 0.5 {
		t.Fatal("metric math wrong")
	}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}

func TestStepwiseAPI(t *testing.T) {
	s := New(cfgSmall(), nonePolicy{})
	s.Step(Access{PID: 1, Page: 5})
	if len(s.slab) != 1 || s.clock == 0 {
		t.Fatalf("resident=%d clock=%d", len(s.slab), s.clock)
	}
	r := s.Result()
	if r.Accesses != 1 {
		t.Fatalf("accesses=%d", r.Accesses)
	}
}

// refSim is Sim as it was before the slab, kept as the reference of the
// differential test: the swap cache is a map of pointers into a
// container/list, a heap entry and a list element allocated per insertion.
type refSim struct {
	cfg    Config
	policy Prefetcher
	clock  int64
	cache  map[pageKey]*refEntry
	lru    *list.List // front = most recently used
	res    Result
}

type refEntry struct {
	key      pageKey
	prefetch bool
	arriveNs int64
	elem     *list.Element
}

func (s *refSim) step(a Access) {
	s.clock += a.Work
	s.res.Accesses++
	key := pageKey{a.PID, a.Page}
	e, hit := s.cache[key]
	if hit {
		if e.prefetch {
			s.res.PrefetchUsed++
			if s.cfg.OutcomeFn != nil {
				s.cfg.OutcomeFn(key.pid, key.page, true)
			}
			if e.arriveNs > s.clock {
				s.res.PrefetchLate++
				s.res.LateStallNs += e.arriveNs - s.clock
				s.clock = e.arriveNs
			}
			e.prefetch = false
		}
		s.res.Hits++
		s.clock += s.cfg.HitNs
		s.lru.MoveToFront(e.elem)
	} else {
		s.res.DemandMisses++
		s.clock += s.cfg.MissNs
		s.insert(key, false, 0)
	}
	pages := s.policy.OnAccess(a.PID, a.Page, hit)
	if len(pages) > s.cfg.MaxPrefetch {
		pages = pages[:s.cfg.MaxPrefetch]
	}
	issued := false
	for _, p := range pages {
		pk := pageKey{a.PID, p}
		if _, ok := s.cache[pk]; ok {
			continue
		}
		if !issued {
			issued = true
			s.clock += s.cfg.PrefetchIssueNs
		}
		s.res.PrefetchIssued++
		s.insert(pk, true, s.clock+s.cfg.PrefetchLatencyNs)
	}
}

func (s *refSim) insert(key pageKey, prefetch bool, arriveNs int64) {
	for len(s.cache) >= s.cfg.CacheSlots {
		tail := s.lru.Back()
		victim := tail.Value.(*refEntry)
		s.lru.Remove(tail)
		delete(s.cache, victim.key)
		if victim.prefetch && s.cfg.OutcomeFn != nil {
			s.cfg.OutcomeFn(victim.key.pid, victim.key.page, false)
		}
	}
	e := &refEntry{key: key, prefetch: prefetch, arriveNs: arriveNs}
	e.elem = s.lru.PushFront(e)
	s.cache[key] = e
}

// strider prefetches a seeded number of pages ahead of every access: some
// resident already, some repeated, more than MaxPrefetch now and then.
type strider struct{ rng *rand.Rand }

func (p *strider) Name() string { return "strider" }
func (p *strider) OnAccess(pid, page int64, hit bool) []int64 {
	var out []int64
	for k := p.rng.Intn(12) - 4; k > 0; k-- {
		out = append(out, page+int64(p.rng.Intn(6)))
	}
	return out
}

// TestLRUMatchesContainerList replays a seeded trace with prefetches through
// Sim and through refSim, each under its own copy of the policy, and compares
// them after every access: clock, the prefetch outcomes reported, the
// whole LRU order, followed through the slab's links in both directions, and
// the per-process index, which must name each resident page's slot and
// nothing else.
func TestLRUMatchesContainerList(t *testing.T) {
	type outcome struct {
		pid, page int64
		used      bool
	}
	for _, slots := range []int{1, 2, 7, 64} {
		var got, want []outcome
		cfg := cfgSmall()
		cfg.CacheSlots = slots
		cfg.MaxPrefetch = 5
		cfg.OutcomeFn = func(pid, page int64, used bool) { got = append(got, outcome{pid, page, used}) }
		s := New(cfg, &strider{rand.New(rand.NewSource(int64(slots)))})
		cfg.OutcomeFn = func(pid, page int64, used bool) { want = append(want, outcome{pid, page, used}) }
		ref := &refSim{cfg: cfg, policy: &strider{rand.New(rand.NewSource(int64(slots)))},
			cache: map[pageKey]*refEntry{}, lru: list.New(), res: Result{Policy: "strider"}}

		rng := rand.New(rand.NewSource(99))
		for step := 0; step < 20000; step++ {
			a := Access{PID: int64(rng.Intn(2)), Page: int64(rng.Intn(40)), Work: int64(rng.Intn(5))}
			if rng.Intn(3) > 0 {
				a.Page = int64(step/3) % 200 // a scan the prefetches can be right about
			}
			got, want = got[:0], want[:0]
			s.Step(a)
			ref.step(a)
			if !slices.Equal(got, want) {
				t.Fatalf("slots=%d step %d: outcomes %v, reference %v", slots, step, got, want)
			}
			indexed := 0
			for _, pages := range s.cache {
				indexed += len(pages)
			}
			if s.clock != ref.clock || len(s.slab) != len(ref.cache) || indexed != len(ref.cache) {
				t.Fatalf("slots=%d step %d: clock %d resident %d indexed %d, reference %d and %d",
					slots, step, s.clock, len(s.slab), indexed, ref.clock, len(ref.cache))
			}
			at, back := s.head, int32(-1)
			for el := ref.lru.Front(); el != nil; el = el.Next() {
				e := el.Value.(*refEntry)
				idx, ok := s.cache[e.key.pid][e.key.page]
				if at < 0 || s.slab[at].key != e.key || s.slab[at].prefetch != e.prefetch ||
					s.slab[at].arriveNs != e.arriveNs || s.slab[at].prev != back || !ok || idx != at {
					t.Fatalf("slots=%d step %d: LRU order departs from the reference at %+v", slots, step, *e)
				}
				at, back = s.slab[at].next, at
			}
			if at != -1 || s.tail != back {
				t.Fatalf("slots=%d step %d: slab order runs past the reference's, or tail is not its end", slots, step)
			}
		}
		ref.res.ClockNs = ref.clock
		if r := s.Result(); r != ref.res {
			t.Fatalf("slots=%d: result %+v, reference %+v", slots, r, ref.res)
		}
		if r := s.Result(); r.PrefetchUsed == 0 || r.PrefetchLate == 0 || r.PrefetchIssued == r.PrefetchUsed {
			t.Fatalf("slots=%d: %+v leaves a prefetch fate unexercised", slots, r)
		}
	}
}
