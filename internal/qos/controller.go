package qos

import (
	"sort"
	"sync"
)

// TenantSpec is a tenant's admission-control contract: its QoS class, the
// reserved rate its token bucket refills at, the burst it may carry, and its
// weighted-fair share inside its band.
type TenantSpec struct {
	Name       string
	Class      Class
	RatePerSec int64 // reserved fires/sec (0 = no reservation)
	Burst      int64 // bucket depth (<=0 selects 1 when rate > 0)
	Weight     int   // WFQ share within the class band (<=0 selects 1)
}

// Config parameterizes the controller.
type Config struct {
	// CapacityPerSec is the fire rate the kernel is provisioned to serve.
	// Offered load beyond it drives the overload signal. <=0 selects 1e6.
	CapacityPerSec int64
	// WindowNs is the demand-measurement window. <=0 selects 1ms.
	WindowNs int64
	// ShedMilli is the overload level (milli-x of capacity) beyond which
	// over-quota burstable traffic is shed rather than degraded.
	// <=0 selects 3000 (3x capacity).
	ShedMilli int64
}

func (c Config) withDefaults() Config {
	if c.CapacityPerSec <= 0 {
		c.CapacityPerSec = 1_000_000
	}
	if c.WindowNs <= 0 {
		c.WindowNs = 1_000_000
	}
	if c.ShedMilli <= 0 {
		c.ShedMilli = 3000
	}
	return c
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	Name     string
	Class    Class
	Offered  int64
	Admitted int64
	Degraded int64
	Shed     int64
}

// tstate is one tenant's controller-side state.
type tstate struct {
	spec   TenantSpec
	bucket *Bucket
	stats  TenantStats
}

// Controller is the admission controller the fire path consults before any
// datapath work. All time is explicit; Admit is deterministic for a given
// sequence of (tenant, nowNs) calls. One mutex guards the whole controller:
// admission is a handful of integer operations, so the critical section is
// tiny (BenchmarkAdmission tracks it in the CI perf gate).
type Controller struct {
	mu  sync.Mutex
	cfg Config

	tenants map[string]*tstate

	winStart  int64
	winOffer  int64
	loadMilli int64 // EWMA of offered/capacity, 1000 = at capacity
}

// NewController builds an admission controller; nowNs seeds the measurement
// window.
func NewController(cfg Config, nowNs int64) *Controller {
	return &Controller{
		cfg:      cfg.withDefaults(),
		tenants:  make(map[string]*tstate),
		winStart: nowNs,
	}
}

// SetTenant installs or replaces a tenant's admission contract. An existing
// tenant's bucket is re-rated in place (a quota change mid-flight keeps its
// accumulated tokens, clamped to the new burst); counters are preserved.
func (c *Controller) SetTenant(spec TenantSpec, nowNs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tenants[spec.Name]; ok {
		t.spec = spec
		t.stats.Class = spec.Class
		t.bucket.SetRate(spec.RatePerSec, spec.Burst, nowNs)
		return
	}
	c.tenants[spec.Name] = &tstate{
		spec:   spec,
		bucket: NewBucket(spec.RatePerSec, spec.Burst, nowNs),
		stats:  TenantStats{Name: spec.Name, Class: spec.Class},
	}
}

// RemoveTenant drops a tenant's contract (teardown).
func (c *Controller) RemoveTenant(name string) {
	c.mu.Lock()
	delete(c.tenants, name)
	c.mu.Unlock()
}

// observe charges one offered fire to the demand window and rolls the
// overload EWMA at window boundaries. The gap since the last observation is
// closed in O(1) regardless of idle time: the first elapsed window carries
// the accumulated count, every further window is empty and halves the EWMA,
// and past 63 empty windows the EWMA is identically zero. Caller holds c.mu.
func (c *Controller) observe(nowNs int64) {
	if gap := nowNs - c.winStart; gap >= c.cfg.WindowNs {
		// Per-window capacity, split to avoid overflowing CapacityPerSec *
		// WindowNs for large windows; clamped so sub-fire windows still
		// divide (overestimating load on such degenerate configs).
		capWin := c.cfg.CapacityPerSec*(c.cfg.WindowNs/1_000_000_000) +
			c.cfg.CapacityPerSec*(c.cfg.WindowNs%1_000_000_000)/1_000_000_000
		if capWin < 1 {
			capWin = 1
		}
		c.loadMilli = (c.loadMilli + c.winOffer*1000/capWin) / 2
		if empty := gap/c.cfg.WindowNs - 1; empty >= 63 {
			c.loadMilli = 0
		} else {
			c.loadMilli >>= uint(empty)
		}
		c.winStart = nowNs - gap%c.cfg.WindowNs
		c.winOffer = 0
	}
	c.winOffer++
}

// Admit decides how one fire of tenant name at nowNs is served. Tenants with
// no installed contract are admitted untouched (the kernel syncs contracts at
// registration, so an unknown name here is the default tenant or a
// pass-through). The decision ladder, per §"graceful overload degradation":
//
//	guaranteed:  token → Admit; over-quota → Admit when under capacity,
//	             Degrade when overloaded. Never Shed.
//	burstable:   token → Admit; over-quota → Admit under capacity, Degrade
//	             when overloaded, Shed beyond ShedMilli.
//	best-effort: token → Admit; otherwise Admit only under capacity,
//	             Shed the moment the kernel is past it.
func (c *Controller) Admit(name string, nowNs int64) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observe(nowNs)
	t, ok := c.tenants[name]
	if !ok {
		return Admit
	}
	t.stats.Offered++
	v := c.decide(t, nowNs)
	switch v {
	case Admit:
		t.stats.Admitted++
	case Degrade:
		t.stats.Degraded++
	case Shed:
		t.stats.Shed++
	}
	return v
}

func (c *Controller) decide(t *tstate, nowNs int64) Verdict {
	overloaded := c.loadMilli > 1000
	switch t.spec.Class {
	case Guaranteed:
		if t.bucket.Take(nowNs) {
			return Admit
		}
		if !overloaded {
			return Admit
		}
		return Degrade
	case Burstable:
		if t.bucket.Take(nowNs) {
			return Admit
		}
		if !overloaded {
			return Admit
		}
		if c.loadMilli > c.cfg.ShedMilli {
			return Shed
		}
		return Degrade
	default: // BestEffort
		if t.bucket.Take(nowNs) {
			return Admit
		}
		if !overloaded {
			return Admit
		}
		return Shed
	}
}

// LoadMilli reports the overload EWMA in milli-x of capacity (1000 = at
// capacity).
func (c *Controller) LoadMilli() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadMilli
}

// Stats returns per-tenant admission accounting, sorted by tenant name.
func (c *Controller) Stats() []TenantStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantStats, 0, len(c.tenants))
	for _, t := range c.tenants {
		out = append(out, t.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
