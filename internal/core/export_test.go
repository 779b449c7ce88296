package core

import (
	"fmt"

	"rmtk/internal/qos"
	"rmtk/internal/table"
)

// Per-tenant views only tests read.

// TenantGeneration reports a tenant's datapath generation ("" for the default
// tenant; zero for unknown tenants).
func (k *Kernel) TenantGeneration(name string) uint64 {
	if ts := k.tenant(name); ts != nil {
		return ts.gen.Load()
	}
	return 0
}

// TenantVerdictCacheStats reports a tenant's verdict-cache counters.
func (k *Kernel) TenantVerdictCacheStats(name string) (table.FlowCacheStats, error) {
	ts := k.tenant(name)
	if ts == nil {
		return table.FlowCacheStats{}, fmt.Errorf("%w: %q", qos.ErrTenantUnknown, name)
	}
	return ts.vcache.Stats(), nil
}

// TenantSupervisor returns a tenant's supervisor ("" returns the default
// tenant's, i.e. the kernel supervisor; nil when unsupervised or unknown).
func (k *Kernel) TenantSupervisor(name string) *Supervisor {
	if name == "" {
		return k.Supervisor()
	}
	k.mu.RLock()
	defer k.mu.RUnlock()
	if ts, ok := k.tenants[name]; ok {
		return ts.sup
	}
	return nil
}

// Sentinel and shadow operations only tests perform or read.

// DetachSentinel removes the sentinel; subsequent fires select engines from
// the configured mode alone. Its quarantines are stashed as restores, as
// EngineQuarantines reported them, for the next sentinel to adopt.
func (k *Kernel) DetachSentinel() {
	k.mu.Lock()
	k.foldLiveLocked(k.quarStash)
	k.sentinel = nil
	k.rebuildRoutesLocked()
	k.mu.Unlock()
}

// ShadowAt returns the shadow attached at hook, or nil.
func (k *Kernel) ShadowAt(hook string) *Shadow {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.shadows[hook]
}

// Breaker overrides the breaker tests drive.

// Trip force-quarantines a program. Programs no snapshot has bound have no
// breaker to trip.
func (s *Supervisor) Trip(progID int64) {
	b := s.breakerOf(progID)
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state() != BreakerOpen {
		b.trip()
	}
}

// Reinstate force-closes a program's breaker (operator override).
func (s *Supervisor) Reinstate(progID int64) {
	b := s.breakerOf(progID)
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails.Store(0)
	b.settle(rungClosed)
}
