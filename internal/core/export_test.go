package core

import (
	"fmt"

	"rmtk/internal/qos"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
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

// ProgramReport returns the admission report of an installed program.
func (k *Kernel) ProgramReport(id int64) (*verifier.Report, error) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	p, ok := k.progs[id]
	if !ok {
		return nil, fmt.Errorf("%w: program %d", ErrNotFound, id)
	}
	return p.report, nil
}
