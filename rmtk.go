// Package rmtk is a reconfigurable-kernel-datapaths toolkit: a reproduction
// of "Toward Reconfigurable Kernel Datapaths with Learned Optimizations"
// (HotOS '21) as a Go library.
//
// The package re-exports the entry points of the system's public surface:
//
//   - an in-kernel RMT virtual machine (match/action tables installed at
//     kernel hook points, a verified bytecode ISA with dedicated ML vector
//     instructions, interpreted, JIT or AOT execution);
//   - a control plane for installing programs, reconfiguring entries and
//     pushing models, optionally backed by a write-ahead log;
//   - multi-tenant admission control.
//
// Quick start:
//
//	k := rmtk.New(rmtk.Config{})
//	plane := rmtk.NewControlPlane(k)
//	insns, _ := rmtk.Assemble("movimm r0, 42\nexit")
//	id, report, _ := plane.LoadProgram(&rmtk.Program{Name: "answer", Insns: insns})
//	_ = id
//	_ = report
//	verdict, _, _ := k.RunProgramByName("answer", 0, 0, 0) // 42
//
// The package's Examples run the paper's Figure 1 and its lean-monitoring
// and cross-application benefits end to end; cmd/rmtbench regenerates the
// case-study tables and every other experiment. DESIGN.md has the system
// inventory.
package rmtk

import (
	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/dp"
	"rmtk/internal/isa"
	"rmtk/internal/qos"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

// Kernel is the in-kernel RMT virtual machine: registries for tables,
// programs, models, matrices and helpers, plus hook dispatch.
type Kernel = core.Kernel

// Config parameterizes kernel construction.
type Config = core.Config

// ModeJIT selects closure-threaded JIT execution (Config.Mode).
const ModeJIT = core.ModeJIT

// Program is a unit of admission: bytecode plus declared resources.
type Program = isa.Program

// Entry is one match/action row.
type Entry = table.Entry

// Action is what a matched entry does.
type Action = table.Action

// Match kinds.
const (
	MatchExact   = table.MatchExact
	MatchPrefix  = table.MatchPrefix
	MatchTernary = table.MatchTernary
)

// Action kinds.
const (
	ActionCollect = table.ActionCollect
	ActionProgram = table.ActionProgram
	ActionParam   = table.ActionParam
)

// Standard helper ids available to programs.
const (
	HelperEmit    = core.HelperEmit
	HelperCtxSum  = core.HelperCtxSum
	HelperHistLen = core.HelperHistLen
)

// ControlPlane is the userland API for program/entry/model management and
// accuracy monitoring.
type ControlPlane = ctrl.Plane

// New constructs a kernel with the standard helper set registered.
func New(cfg Config) *Kernel { return core.NewKernel(cfg) }

// NewControlPlane creates a control plane over k.
func NewControlPlane(k *Kernel) *ControlPlane { return ctrl.New(k) }

// NewTable creates an empty match table for a hook point.
func NewTable(name, hook string, kind table.MatchKind) *table.Table {
	return table.New(name, hook, kind)
}

// Assemble parses RMT assembler text into instructions.
func Assemble(src string) ([]isa.Instr, error) { return isa.Assemble(src) }

// NewPrivacyAccountant creates a differential-privacy budget over aggregate
// context queries with the given total epsilon (Config.Privacy).
func NewPrivacyAccountant(epsilon float64, seed int64) (*dp.Accountant, error) {
	return dp.NewAccountant(epsilon, seed)
}

// Durable control plane (see DESIGN.md "Durability & recovery"): a
// WAL-backed plane appends every committed mutation to a CRC-framed
// write-ahead log before applying it, periodically folds the full plane
// state into a checkpoint, and after a crash rebuilds kernel and plane from
// the newest valid checkpoint plus the intact log suffix — a torn or
// corrupted tail is detected by the framing and discarded, never replayed.

// WALOptions configures the durable log (sync discipline, etc.).
type WALOptions = wal.Options

// OpenDurableControlPlane opens a WAL-backed control plane over k rooted at
// dir. The directory must be fresh (or empty): rebuilding from existing
// state is RecoverControlPlane's job.
func OpenDurableControlPlane(k *Kernel, dir string, opts WALOptions) (*ControlPlane, error) {
	return ctrl.Open(k, dir, opts)
}

// RecoverControlPlane rebuilds a kernel and its control plane from a durable
// state directory and reattaches the log for continued operation.
func RecoverControlPlane(dir string, cfg Config, opts WALOptions) (*ControlPlane, ctrl.RecoveryStats, error) {
	return ctrl.Recover(dir, cfg, opts, nil)
}

// Multi-tenant isolation (see DESIGN.md "Multi-tenancy & admission
// control"): tenants own name-prefixed resources behind independent route
// snapshots, verdict caches and supervisors; a QoS admission controller
// decides per fire whether a tenant's event runs, degrades to the hook's
// baseline fallback, or is shed with a typed error.

// TenantQuota is one tenant's contract: QoS class, reserved rate and burst,
// fair-share weight, and hard resource caps.
type TenantQuota = core.TenantQuota

// QoSGuaranteed is the highest-priority service tier: untouched inside its
// reservation.
const QoSGuaranteed = qos.Guaranteed

// AdmissionConfig parameterizes the admission controller.
type AdmissionConfig = qos.Config

// NewAdmissionController builds an admission controller; nowNs seeds the
// load-measurement window. Attach it with Kernel.SetAdmission.
func NewAdmissionController(cfg AdmissionConfig, nowNs int64) *qos.Controller {
	return qos.NewController(cfg, nowNs)
}

// TenantName prefixes a resource name with a tenant namespace ("" returns
// the name unchanged: the default tenant's resources are unprefixed).
func TenantName(tenant, name string) string { return core.TenantName(tenant, name) }

// ErrAdmissionShed is wrapped when admission control sheds a fire under
// overload — deliberate load management, not a datapath failure. Branch with
// errors.Is.
var ErrAdmissionShed = qos.ErrAdmissionShed
