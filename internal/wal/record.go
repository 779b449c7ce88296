package wal

import (
	"encoding/json"
	"fmt"
)

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
	Kind    uint8 `json:"k"`
	Param   int64 `json:"p,omitempty"`
	ProgID  int64 `json:"pr,omitempty"`
	ModelID int64 `json:"m,omitempty"`
}

// Entry mirrors table.Entry's match spec and action in durable form.
type Entry struct {
	Key       uint64 `json:"key"`
	PrefixLen uint8  `json:"plen,omitempty"`
	Lo        uint64 `json:"lo,omitempty"`
	Hi        uint64 `json:"hi,omitempty"`
	Mask      uint64 `json:"mask,omitempty"`
	Priority  int32  `json:"prio,omitempty"`
	Action    Action `json:"act"`
}

// Program is the durable form of an isa.Program admission unit: the wire
// bytecode plus the declared resource references. Admission artifacts
// (proofs, contracts, static cost) are never persisted — replay re-runs the
// verifier, which regenerates them deterministically.
type Program struct {
	Name    string  `json:"name"`
	Hook    string  `json:"hook,omitempty"`
	Code    []byte  `json:"code"` // isa wire encoding (16 bytes/instruction)
	Helpers []int64 `json:"helpers,omitempty"`
	Models  []int64 `json:"models,omitempty"`
	Mats    []int64 `json:"mats,omitempty"`
	Tables  []int64 `json:"tables,omitempty"`
	Vecs    []int64 `json:"vecs,omitempty"`
	Tails   []int64 `json:"tails,omitempty"`
}

// Model is a codec-tagged model snapshot. Codec selects the decoder (e.g.
// "qmlp", "tree"); Data is the codec's own JSON payload.
type Model struct {
	Codec string          `json:"codec"`
	Data  json.RawMessage `json:"data"`
}

// Quota mirrors a tenant's resource contract (core.TenantQuota) in durable
// form: QoS class, reserved rate, fair-share weight, resource caps and
// SLO overrides.
type Quota struct {
	Class       uint8 `json:"class,omitempty"`
	RatePerSec  int64 `json:"rate,omitempty"`
	Burst       int64 `json:"burst,omitempty"`
	Weight      int   `json:"weight,omitempty"`
	MaxTables   int   `json:"max_tables,omitempty"`
	MaxPrograms int   `json:"max_progs,omitempty"`
	StepBudget  int64 `json:"step_budget,omitempty"`
	StepSLO     int64 `json:"step_slo,omitempty"`
	LatencySLO  int64 `json:"latency_slo_ns,omitempty"`
}

// Matrix mirrors a registered weight matrix (core.Matrix) in durable form.
type Matrix struct {
	In  int     `json:"in"`
	Out int     `json:"out"`
	W   []int64 `json:"w"`
	B   []int64 `json:"b"`
}

// Alloc is a checkpoint's closing state: the id allocators' high-water marks
// and the plane version.
type Alloc struct {
	Table   int64  `json:"table"`
	Prog    int64  `json:"prog"`
	Model   int64  `json:"model"`
	Mat     int64  `json:"mat"`
	Version uint64 `json:"version,omitempty"`
}

// Incident is the durable form of an engine-sentinel incident. Tiers are
// stored by name ("aot", "jit", "interp", "baseline") so the log is
// self-describing without importing engine enums.
type Incident struct {
	Program string `json:"program,omitempty"`
	Hash    string `json:"hash"`
	From    string `json:"from,omitempty"`
	To      string `json:"to"`
	Cause   string `json:"cause,omitempty"`
	Fire    int64  `json:"fire,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Record is one logged control-plane mutation. Kind selects which fields
// are meaningful; unused fields are omitted from the encoding.
type Record struct {
	// Seq is the record's position in the log, assigned by Append; replay
	// applies records in ascending Seq order.
	Seq uint64 `json:"seq"`
	// Kind selects the mutation type.
	Kind Kind `json:"kind"`
	// ID is the explicit id a checkpoint record restores its table, program,
	// model or matrix at; zero (every log record) allocates the next id.
	ID int64 `json:"id,omitempty"`

	// Table names the target table (entry ops, create).
	Table string `json:"table,omitempty"`
	// Hook is the created table's hook point.
	Hook string `json:"hook,omitempty"`
	// Match is the created table's match discipline (table.MatchKind).
	Match uint8 `json:"match,omitempty"`
	// Entry is the row an entry op inserts or deletes.
	Entry *Entry `json:"entry,omitempty"`
	// Rows are a checkpointed table's entries.
	Rows []Entry `json:"rows,omitempty"`
	// Key addresses the exact-match row of a KindUpdateAction.
	Key uint64 `json:"key,omitempty"`
	// Action is KindUpdateAction's replacement action, or a checkpointed
	// table's default.
	Action *Action `json:"action,omitempty"`
	// Program is the admission unit of a KindLoadProgram.
	Program *Program `json:"program,omitempty"`
	// Model is the codec-encoded model of a register/push record.
	Model *Model `json:"model,omitempty"`
	// ModelID addresses the model slot of a KindPushModel.
	ModelID int64 `json:"model_id,omitempty"`
	// Tenant names the target of a tenant record, or the owning tenant of a
	// KindRegisterModel ("" for default-owned).
	Tenant string `json:"tenant,omitempty"`
	// Quota is the contract of a register-tenant / set-quota record.
	Quota *Quota `json:"quota,omitempty"`
	// Sub holds a transaction's staged records in commit order.
	Sub []*Record `json:"sub,omitempty"`
	// Ref is the sequence number a KindAbort cancels.
	Ref uint64 `json:"ref,omitempty"`
	// Bump records that the mutation advanced the plane version (committed
	// reconfiguration: transaction commit or canary promotion),
	// so replay restores the same version counter.
	Bump bool `json:"bump,omitempty"`
	// Incident is the engine-sentinel incident of a KindIncident record.
	Incident *Incident `json:"incident,omitempty"`
	// Matrix is the weights of a KindRegisterMatrix record.
	Matrix *Matrix `json:"matrix,omitempty"`
	// Alloc is the payload of a KindAllocState record.
	Alloc *Alloc `json:"alloc,omitempty"`
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

// marshal encodes the record payload, rejecting malformed records up front
// so a caller bug cannot write a record replay would choke on.
func (r *Record) marshal() ([]byte, error) {
	if err := r.validate(false); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	return json.Marshal(r)
}

// unmarshalRecord decodes and validates one record payload.
func unmarshalRecord(payload []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, err
	}
	if err := r.validate(false); err != nil {
		return nil, err
	}
	return &r, nil
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
