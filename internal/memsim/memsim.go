// Package memsim simulates the kernel memory/swap subsystem that case study
// #1 of the paper instruments: a swap cache in front of a slow backing store
// (disk or far memory), with the two hook points of Figure 1 —
// lookup_swap_cache (page-access data collection) and
// swap_cluster_readahead (prefetch prediction).
//
// The simulator is a discrete-event cost model over a virtual clock: demand
// faults stall synchronously, prefetches are issued in batches and arrive
// asynchronously after a configurable latency, and application compute
// overlaps with in-flight prefetches. This preserves the quantities the
// paper reports — prefetch accuracy, coverage, and job completion time —
// without requiring in-kernel execution (see DESIGN.md substitutions).
package memsim

import "fmt"

// Hook names fired by the simulator, matching the paper's instrumentation
// points in mm/swap_state.c.
const (
	HookLookupSwapCache      = "mm/lookup_swap_cache"
	HookSwapClusterReadahead = "mm/swap_cluster_readahead"
)

// Access is one page reference by a process.
type Access struct {
	// PID identifies the accessing process.
	PID int64
	// Page is the virtual page number referenced.
	Page int64
	// Work is compute time (virtual ns) the application performs after the
	// access; it overlaps with in-flight prefetch IO.
	Work int64
}

// Prefetcher is a pluggable prefetching policy (Linux readahead, Leap, or
// the RMT/ML policy).
type Prefetcher interface {
	// Name identifies the policy in reports.
	Name() string
	// OnAccess observes every page reference (the lookup_swap_cache hook)
	// with its hit/miss outcome and returns the set of pages to prefetch
	// (the swap_cluster_readahead hook); return nil to prefetch nothing.
	// The returned slice is valid until the next OnAccess: a policy may
	// reuse its backing array.
	OnAccess(pid, page int64, hit bool) []int64
}

// Delayer is an optional Prefetcher extension: policies that accumulate
// synchronous stall out of band (e.g. fault-injected latency spikes from
// core.FireResult.DelayNs) report it here and the simulator charges it to the
// virtual clock. TakeDelay drains the pending stall.
type Delayer interface {
	TakeDelay() int64
}

// Config parameterizes the cost model.
type Config struct {
	// CacheSlots is the swap-cache capacity in pages. <=0 selects 1024.
	CacheSlots int
	// HitNs is charged for a cache hit. <=0 selects 200.
	HitNs int64
	// MissNs is the synchronous demand-fault stall. <=0 selects 60000
	// (a fast far-memory/NVMe swap device, the Leap setting).
	MissNs int64
	// PrefetchIssueNs is the synchronous cost of issuing one prefetch
	// batch. <=0 selects 1500.
	PrefetchIssueNs int64
	// PrefetchLatencyNs is how long a prefetched page takes to arrive.
	// <=0 selects MissNs (same device).
	PrefetchLatencyNs int64
	// MaxPrefetch caps pages accepted per OnAccess call — the rate-limit
	// guardrail the verifier imposes on resource-allocating programs
	// (§3.3). <=0 selects 32.
	MaxPrefetch int
	// OutcomeFn, when non-nil, receives the fate of every prefetched page:
	// used=true on its first reference, used=false when it is evicted (or
	// left) unreferenced. This is the feedback the control plane's
	// accuracy monitor consumes.
	OutcomeFn func(pid, page int64, used bool)
}

func (c Config) withDefaults() Config {
	if c.CacheSlots <= 0 {
		c.CacheSlots = 1024
	}
	if c.HitNs <= 0 {
		c.HitNs = 200
	}
	if c.MissNs <= 0 {
		c.MissNs = 60000
	}
	if c.PrefetchIssueNs <= 0 {
		c.PrefetchIssueNs = 1500
	}
	if c.PrefetchLatencyNs <= 0 {
		c.PrefetchLatencyNs = c.MissNs
	}
	if c.MaxPrefetch <= 0 {
		c.MaxPrefetch = 32
	}
	return c
}

// Result summarizes one simulation run with the metric definitions of
// Table 1:
//
//   - Accuracy  = prefetched pages that were subsequently used / issued
//   - Coverage  = would-be misses served by prefetch / all misses
//     (prefetch hits + demand faults)
//   - Completion time = final virtual clock.
type Result struct {
	Policy string

	Accesses     int64
	Hits         int64 // includes prefetch hits
	DemandMisses int64

	PrefetchIssued int64
	PrefetchUsed   int64
	PrefetchLate   int64 // used, but the access had to wait for arrival
	LateStallNs    int64

	ClockNs int64
}

// Accuracy is prefetched-and-used over issued (0 when nothing was issued).
func (r Result) Accuracy() float64 {
	if r.PrefetchIssued == 0 {
		return 0
	}
	return float64(r.PrefetchUsed) / float64(r.PrefetchIssued)
}

// Coverage is the fraction of misses that prefetching absorbed.
func (r Result) Coverage() float64 {
	den := r.PrefetchUsed + r.DemandMisses
	if den == 0 {
		return 0
	}
	return float64(r.PrefetchUsed) / float64(den)
}

// CompletionSeconds converts the virtual clock to seconds.
func (r Result) CompletionSeconds() float64 { return float64(r.ClockNs) / 1e9 }

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: acc=%.2f%% cov=%.2f%% jct=%.2fs (hits=%d demand=%d issued=%d used=%d late=%d)",
		r.Policy, 100*r.Accuracy(), 100*r.Coverage(), r.CompletionSeconds(),
		r.Hits, r.DemandMisses, r.PrefetchIssued, r.PrefetchUsed, r.PrefetchLate)
}

type pageKey struct {
	pid  int64
	page int64
}

// cacheEntry is one resident page, linked into the LRU order by slab index.
type cacheEntry struct {
	key        pageKey
	prefetch   bool  // brought in by prefetch and not yet referenced
	arriveNs   int64 // when the page's IO completes (prefetch only)
	prev, next int32 // towards the most / least recently used; -1 at the ends
}

// Sim is a single-run simulator instance.
type Sim struct {
	cfg    Config
	policy Prefetcher

	clock int64
	// The swap cache: slab holds the resident pages, at most CacheSlots of
	// them, and never shrinks — an eviction hands its victim's slot straight
	// to the page that displaced it.
	slab       []cacheEntry
	cache      map[pageKey]int32 // page -> slab index
	head, tail int32             // most and least recently used; -1 when empty

	res Result
}

// New creates a simulator with the given policy.
func New(cfg Config, policy Prefetcher) *Sim {
	cfg = cfg.withDefaults()
	return &Sim{
		cfg:    cfg,
		policy: policy,
		slab:   make([]cacheEntry, 0, cfg.CacheSlots),
		cache:  make(map[pageKey]int32, cfg.CacheSlots),
		head:   -1,
		tail:   -1,
		res:    Result{Policy: policy.Name()},
	}
}

// Run replays the trace and returns the metrics.
func Run(cfg Config, policy Prefetcher, trace []Access) Result {
	s := New(cfg, policy)
	for _, a := range trace {
		s.Step(a)
	}
	return s.Result()
}

// Step processes one access.
func (s *Sim) Step(a Access) {
	s.clock += a.Work
	s.res.Accesses++
	key := pageKey{a.PID, a.Page}

	at, hit := s.cache[key]
	if hit {
		if e := &s.slab[at]; e.prefetch {
			// First reference to a prefetched page: a prefetch hit.
			s.res.PrefetchUsed++
			if s.cfg.OutcomeFn != nil {
				s.cfg.OutcomeFn(key.pid, key.page, true)
			}
			if e.arriveNs > s.clock {
				// IO still in flight; stall for the remainder. A late but
				// correct prefetch still saves (MissNs - remainder).
				s.res.PrefetchLate++
				s.res.LateStallNs += e.arriveNs - s.clock
				s.clock = e.arriveNs
			}
			e.prefetch = false
		}
		s.res.Hits++
		s.clock += s.cfg.HitNs
		if at != s.head {
			s.unlink(at)
			s.pushFront(at)
		}
	} else {
		// Demand fault: synchronous read from the backing store.
		s.res.DemandMisses++
		s.clock += s.cfg.MissNs
		s.insert(key, false, 0)
	}

	pages := s.policy.OnAccess(a.PID, a.Page, hit)
	if d, ok := s.policy.(Delayer); ok {
		// A policy that stalled synchronously (injected latency spike) holds
		// the fault path for that long.
		s.clock += d.TakeDelay()
	}
	if len(pages) == 0 {
		return
	}
	if len(pages) > s.cfg.MaxPrefetch {
		pages = pages[:s.cfg.MaxPrefetch]
	}
	issued := false
	for _, p := range pages {
		pk := pageKey{a.PID, p}
		if _, ok := s.cache[pk]; ok {
			continue // already resident or in flight
		}
		if !issued {
			issued = true
			s.clock += s.cfg.PrefetchIssueNs // one batch submission
		}
		s.res.PrefetchIssued++
		s.insert(pk, true, s.clock+s.cfg.PrefetchLatencyNs)
	}
}

// insert makes key resident and most recently used, evicting the least
// recently used page when the cache is full.
func (s *Sim) insert(key pageKey, prefetch bool, arriveNs int64) {
	var at int32
	if len(s.slab) < s.cfg.CacheSlots {
		at = int32(len(s.slab))
		s.slab = append(s.slab, cacheEntry{})
	} else {
		at = s.tail
		victim := s.slab[at]
		s.unlink(at)
		delete(s.cache, victim.key)
		if victim.prefetch && s.cfg.OutcomeFn != nil {
			s.cfg.OutcomeFn(victim.key.pid, victim.key.page, false)
		}
	}
	s.slab[at] = cacheEntry{key: key, prefetch: prefetch, arriveNs: arriveNs}
	s.pushFront(at)
	s.cache[key] = at
}

// unlink takes slab entry at out of the LRU order.
func (s *Sim) unlink(at int32) {
	e := &s.slab[at]
	if e.prev >= 0 {
		s.slab[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slab[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront links slab entry at in as the most recently used.
func (s *Sim) pushFront(at int32) {
	e := &s.slab[at]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slab[s.head].prev = at
	} else {
		s.tail = at
	}
	s.head = at
}

// Clock reports the current virtual time.
func (s *Sim) Clock() int64 { return s.clock }

// Resident reports the number of cached pages.
func (s *Sim) Resident() int { return len(s.cache) }

// Result finalizes and returns the run metrics.
func (s *Sim) Result() Result {
	r := s.res
	r.ClockNs = s.clock
	return r
}
