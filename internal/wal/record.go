package wal

import "fmt"

// Kind enumerates the typed control-plane mutations the log and checkpoints
// record. The semantics of each kind — how it applies to a kernel — live in
// internal/ctrl; this package only defines the durable schema. A kind is
// numbered by its place in the list below, on disk too, so a retired kind
// keeps its slot as a blank placeholder, has no name, and is not Valid.
type Kind uint8

const (
	// KindCreateTable registers a match/action table (Table, Hook, Match).
	// A checkpoint's table record also carries its Rows and default Action.
	KindCreateTable Kind = iota + 1
	// KindAddEntry inserts Entry into table Table.
	KindAddEntry
	// KindRemoveEntry deletes Entry from table Table.
	KindRemoveEntry
	// KindUpdateAction replaces the action of exact-match Key in Table.
	KindUpdateAction
	// KindLoadProgram admits Program (verify → compile → register).
	KindLoadProgram
	// KindRegisterModel registers Model as a fresh inference model.
	KindRegisterModel
	_ // retired: register-qmlp
	// KindPushModel swaps model ModelID for Model.
	KindPushModel
	_ // retired: rollback-model
	_ // retired: retarget
	// KindTxnCommit applies Sub in order as one atomic transaction; replay
	// observes all of it or (via a later KindAbort) none of it.
	KindTxnCommit
	// KindAbort marks the record at sequence Ref as rolled back in memory
	// after its append (a failed apply): replay must skip Ref.
	KindAbort
	_ // retired: epoch
	// KindRegisterTenant creates tenant namespace Tenant with contract Quota.
	KindRegisterTenant
	// KindSetQuota replaces tenant Tenant's contract with Quota.
	KindSetQuota
	// KindRemoveTenant tears tenant Tenant down (its prefixed resources go
	// with it; their creation records are superseded, not contradicted).
	KindRemoveTenant
	// KindIncident records an engine-sentinel incident: the demotion (or
	// detected divergence) of one program content hash's engine tier.
	// Replay re-applies the quarantine (Incident.Hash held at Incident.To),
	// so a restart distrusts exactly the native tiers the sentinel
	// distrusted. A checkpoint restores a quarantine as an incident
	// carrying only Hash and To.
	KindIncident
	// KindRegisterMatrix registers weight matrix Matrix. Only checkpoints
	// write it: matrices registered on the kernel behind the plane (a
	// fixture's) are state the log never saw.
	KindRegisterMatrix
	// KindAllocState closes a checkpoint: it advances the id allocators past
	// every hole the restored registries leave, and sets the plane version.
	KindAllocState
)

var kindNames = [...]string{
	KindCreateTable:    "create-table",
	KindAddEntry:       "add-entry",
	KindRemoveEntry:    "remove-entry",
	KindUpdateAction:   "update-action",
	KindLoadProgram:    "load-program",
	KindRegisterModel:  "register-model",
	KindPushModel:      "push-model",
	KindTxnCommit:      "txn-commit",
	KindAbort:          "abort",
	KindRegisterTenant: "register-tenant",
	KindSetQuota:       "set-quota",
	KindRemoveTenant:   "remove-tenant",
	KindIncident:       "incident",
	KindRegisterMatrix: "register-matrix",
	KindAllocState:     "alloc-state",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined record kind that is not retired.
func (k Kind) Valid() bool { return int(k) < len(kindNames) && kindNames[k] != "" }

// transactional reports whether a transaction record may carry k: the kinds
// a ctrl.Txn stages, each of which has an undo.
func (k Kind) transactional() bool {
	return k == KindCreateTable || k == KindAddEntry || k == KindUpdateAction ||
		k == KindLoadProgram || k == KindPushModel || k == KindSetQuota
}

// Action mirrors table.Action in durable form.
type Action struct {
	Kind    uint8
	Param   int64
	ProgID  int64
	ModelID int64
}

// Entry mirrors table.Entry's match spec and action in durable form.
type Entry struct {
	Key       uint64
	PrefixLen uint8
	Lo        uint64
	Hi        uint64
	Mask      uint64
	Priority  int32
	Action    Action
}

// Program is the durable form of an isa.Program admission unit: the wire
// bytecode plus the declared resource references. Admission artifacts
// (proofs, contracts, static cost) are never persisted — replay re-runs the
// verifier, which regenerates them deterministically.
type Program struct {
	Name    string
	Hook    string
	Code    []byte // isa wire encoding (16 bytes/instruction)
	Helpers []int64
	Models  []int64
	Mats    []int64
	Tables  []int64
	Vecs    []int64
	Tails   []int64
}

// Model is a codec-tagged model snapshot. Codec selects the decoder (e.g.
// "qmlp", "tree"); Data is the codec's own payload, opaque to the log.
type Model struct {
	Codec string
	Data  []byte
}

// Quota mirrors a tenant's resource contract (core.TenantQuota) in durable
// form: QoS class, reserved rate, fair-share weight, resource caps and
// SLO overrides.
type Quota struct {
	Class       uint8
	RatePerSec  int64
	Burst       int64
	Weight      int
	MaxTables   int
	MaxPrograms int
	StepBudget  int64
	StepSLO     int64
	LatencySLO  int64
}

// Matrix mirrors a registered weight matrix (core.Matrix) in durable form.
type Matrix struct {
	In  int
	Out int
	W   []int64
	B   []int64
}

// Alloc is a checkpoint's closing state: the id allocators' high-water marks
// and the plane version.
type Alloc struct {
	Table   int64
	Prog    int64
	Model   int64
	Mat     int64
	Version uint64
}

// Incident is the durable form of an engine-sentinel incident. Tiers are
// stored by name ("aot", "jit", "interp", "baseline") so the log is
// self-describing without importing engine enums.
type Incident struct {
	Program string
	Hash    string
	From    string
	To      string
	Cause   string
	Fire    int64
	Detail  string
}

// Record is one logged control-plane mutation. Kind selects which fields
// are meaningful; zero fields are omitted from the encoding.
type Record struct {
	// Seq is the record's position in the log, assigned by Append; replay
	// applies records in ascending Seq order.
	Seq uint64
	// Kind selects the mutation type.
	Kind Kind
	// ID is the explicit id a checkpoint record restores its table, program,
	// model or matrix at; zero (every log record) allocates the next id.
	ID int64

	// Table names the target table (entry ops, create).
	Table string
	// Hook is the created table's hook point.
	Hook string
	// Match is the created table's match discipline (table.MatchKind).
	Match uint8
	// Entry is the row an entry op inserts or deletes.
	Entry *Entry
	// Rows are a checkpointed table's entries.
	Rows []Entry
	// Key addresses the exact-match row of a KindUpdateAction.
	Key uint64
	// Action is KindUpdateAction's replacement action, or a checkpointed
	// table's default.
	Action *Action
	// Program is the admission unit of a KindLoadProgram.
	Program *Program
	// Model is the codec-encoded model of a register/push record.
	Model *Model
	// ModelID addresses the model slot of a KindPushModel.
	ModelID int64
	// Tenant names the target of a tenant record, or the owning tenant of a
	// KindRegisterModel ("" for default-owned).
	Tenant string
	// Quota is the contract of a register-tenant / set-quota record.
	Quota *Quota
	// Sub holds a transaction's staged records in commit order.
	Sub []*Record
	// Ref is the sequence number a KindAbort cancels.
	Ref uint64
	// Bump records that the mutation advanced the plane version (committed
	// reconfiguration: transaction commit or canary promotion),
	// so replay restores the same version counter.
	Bump bool
	// Incident is the engine-sentinel incident of a KindIncident record.
	Incident *Incident
	// Matrix is the weights of a KindRegisterMatrix record.
	Matrix *Matrix
	// Alloc is the payload of a KindAllocState record.
	Alloc *Alloc
}

// validate checks that the fields Kind requires are present, so neither a
// caller bug nor fuzzed log bytes can produce a record replay would crash
// on. A transaction's sub-records are validated recursively and must be
// transactional kinds.
func (r *Record) validate(sub bool) error {
	if !r.Kind.Valid() {
		return fmt.Errorf("invalid kind %d", r.Kind)
	}
	if sub && !r.Kind.transactional() {
		return fmt.Errorf("%s inside a transaction record", r.Kind)
	}
	switch r.Kind {
	case KindCreateTable:
		if r.Table == "" {
			return fmt.Errorf("create-table without a table name")
		}
	case KindAddEntry, KindRemoveEntry:
		if r.Table == "" || r.Entry == nil {
			return fmt.Errorf("%s without table/entry", r.Kind)
		}
	case KindUpdateAction:
		if r.Table == "" || r.Action == nil {
			return fmt.Errorf("update-action without table/action")
		}
	case KindLoadProgram:
		if r.Program == nil || r.Program.Name == "" {
			return fmt.Errorf("load-program without a program")
		}
	case KindRegisterModel, KindPushModel:
		if r.Model == nil || r.Model.Codec == "" {
			return fmt.Errorf("%s without a model payload", r.Kind)
		}
	case KindTxnCommit:
		for _, s := range r.Sub {
			if s == nil {
				return fmt.Errorf("nil transaction sub-record")
			}
			if err := s.validate(true); err != nil {
				return err
			}
		}
	case KindAbort:
	case KindRegisterTenant, KindSetQuota:
		if r.Tenant == "" || r.Quota == nil {
			return fmt.Errorf("%s without tenant/quota", r.Kind)
		}
	case KindRemoveTenant:
		if r.Tenant == "" {
			return fmt.Errorf("remove-tenant without a tenant name")
		}
	case KindIncident:
		if r.Incident == nil || r.Incident.Hash == "" || r.Incident.To == "" {
			return fmt.Errorf("incident without hash/to")
		}
	case KindRegisterMatrix:
		if r.Matrix == nil {
			return fmt.Errorf("register-matrix without a matrix")
		}
	case KindAllocState:
		if r.Alloc == nil {
			return fmt.Errorf("alloc-state without allocators")
		}
	}
	return nil
}

// String renders a one-line summary for log inspection.
func (r *Record) String() string {
	switch r.Kind {
	case KindCreateTable:
		return fmt.Sprintf("#%d create-table %q hook=%q match=%d", r.Seq, r.Table, r.Hook, r.Match)
	case KindAddEntry, KindRemoveEntry:
		return fmt.Sprintf("#%d %s table=%q key=%d", r.Seq, r.Kind, r.Table, r.Entry.Key)
	case KindUpdateAction:
		return fmt.Sprintf("#%d update-action table=%q key=%d", r.Seq, r.Table, r.Key)
	case KindLoadProgram:
		return fmt.Sprintf("#%d load-program %q hook=%q (%dB code)", r.Seq, r.Program.Name, r.Program.Hook, len(r.Program.Code))
	case KindRegisterModel, KindPushModel:
		codec := "?"
		if r.Model != nil {
			codec = r.Model.Codec
		}
		return fmt.Sprintf("#%d %s model=%d codec=%s", r.Seq, r.Kind, r.ModelID, codec)
	case KindTxnCommit:
		return fmt.Sprintf("#%d txn-commit (%d steps)", r.Seq, len(r.Sub))
	case KindAbort:
		return fmt.Sprintf("#%d abort ref=#%d", r.Seq, r.Ref)
	case KindRegisterTenant, KindSetQuota:
		return fmt.Sprintf("#%d %s tenant=%q class=%d rate=%d", r.Seq, r.Kind, r.Tenant, r.Quota.Class, r.Quota.RatePerSec)
	case KindRemoveTenant:
		return fmt.Sprintf("#%d remove-tenant tenant=%q", r.Seq, r.Tenant)
	case KindIncident:
		return fmt.Sprintf("#%d incident %s [%s] %s->%s fire=%d", r.Seq, r.Incident.Program, r.Incident.Cause, r.Incident.From, r.Incident.To, r.Incident.Fire)
	case KindRegisterMatrix:
		return fmt.Sprintf("#%d register-matrix id=%d %dx%d", r.Seq, r.ID, r.Matrix.Out, r.Matrix.In)
	case KindAllocState:
		return fmt.Sprintf("#%d alloc-state version=%d", r.Seq, r.Alloc.Version)
	default:
		return fmt.Sprintf("#%d %s", r.Seq, r.Kind)
	}
}
