package ctrl

import (
	"rmtk/internal/core"
	"rmtk/internal/qos"
	"rmtk/internal/wal"
)

// This file is the control plane's tenancy surface: tenant registration,
// quota changes and teardown are records submitted like every other
// mutation, so a recovered plane reproduces its tenant namespaces —
// contracts, owned resources and all — before any prefixed record replays
// against them. A checkpoint writes its tenant records FIRST for the same
// reason: quota admission and name-prefix ownership must resolve when the
// tenant's tables and programs land.

// --- record conversion ----------------------------------------------------

func walQuota(q core.TenantQuota) *wal.Quota {
	return &wal.Quota{
		Class: uint8(q.Class), RatePerSec: q.RatePerSec, Burst: q.Burst,
		Weight: q.Weight, MaxTables: q.MaxTables, MaxPrograms: q.MaxPrograms,
		StepBudget: q.StepBudget, StepSLO: q.StepSLO, LatencySLO: q.LatencySLONs,
	}
}

func ctrlQuota(q *wal.Quota) core.TenantQuota {
	return core.TenantQuota{
		Class: qos.Class(q.Class), RatePerSec: q.RatePerSec, Burst: q.Burst,
		Weight: q.Weight, MaxTables: q.MaxTables, MaxPrograms: q.MaxPrograms,
		StepBudget: q.StepBudget, StepSLO: q.StepSLO, LatencySLONs: q.LatencySLO,
	}
}

// --- plane mutators -------------------------------------------------------

// RegisterTenant creates a tenant namespace with the given quota, durably on
// a logged plane.
func (p *Plane) RegisterTenant(name string, q core.TenantQuota) error {
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindRegisterTenant, Tenant: name, Quota: walQuota(q)}})
}

// SetTenantQuota replaces a tenant's contract, durably on a logged plane.
func (p *Plane) SetTenantQuota(name string, q core.TenantQuota) error {
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindSetQuota, Tenant: name, Quota: walQuota(q)}})
}

// RemoveTenant tears a tenant down, durably on a logged plane.
func (p *Plane) RemoveTenant(name string) error {
	return p.submit(&mut{rec: &wal.Record{Kind: wal.KindRemoveTenant, Tenant: name}})
}

// RegisterModelOwned registers a tenant-owned model through the plane; a
// durable plane logs the codec-encoded model with its owner so recovery
// restores the ownership along with the weights.
func (p *Plane) RegisterModelOwned(owner string, m core.Model) (int64, error) {
	mu := &mut{rec: &wal.Record{Kind: wal.KindRegisterModel, Tenant: owner}, model: m}
	err := p.submit(mu)
	return mu.id, err
}

// SetTenantQuota stages a quota replacement; rollback restores the contract
// found at apply time. Staging a quota change alongside the table/program
// reconfiguration it provisions for makes the two land (or fail) together —
// the mid-flight quota-change path.
func (t *Txn) SetTenantQuota(name string, q core.TenantQuota) {
	t.stage(&mut{rec: &wal.Record{Kind: wal.KindSetQuota, Tenant: name, Quota: walQuota(q)}})
}
