package ctrl

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/wal"
)

// This file makes the control plane durable: every committed mutation's
// record is appended to a write-ahead log (internal/wal) before it is
// applied to the kernel (submit, mutation.go), checkpoints bound replay
// time, and Recover rebuilds a plane from the newest valid checkpoint plus
// the intact log suffix. A checkpoint is itself a record sequence — the
// compacted log that rebuilds the state from an empty kernel — so restore
// and replay both run the apply live mutations ran. The invariants are
//
//	appended   ⇒ replay applies it (unless a later abort record cancels it)
//	not appended ⇒ replay never observes it
//
// so a crash at any instruction boundary recovers to a state the plane
// actually committed. Transactions append one all-or-nothing commit record,
// so replay can never observe a half-applied transaction; a corrupt or torn
// log suffix is discarded back to the last intact record boundary.

// Durability sentinels.
var (
	// ErrRecoveryMismatch is wrapped when a recovered plane fails its
	// post-replay invariant checks, or when VerifyEquivalence finds the
	// recovered state diverging from the reference plane.
	ErrRecoveryMismatch = errors.New("ctrl: recovered state mismatch")
	// ErrNotReplayable is wrapped when a durable plane is asked to commit
	// a transaction step that cannot be encoded into the log (a model with
	// no durable codec).
	ErrNotReplayable = errors.New("ctrl: operation not replayable")
	// errSimulatedCrash marks the test-only crash point between the log
	// append and the in-memory apply (the torn-state window the recovery
	// tests exercise).
	errSimulatedCrash = errors.New("ctrl: simulated crash after append")
)

// Open creates a durable control plane for k rooted at dir: mutations are
// write-ahead logged and fsynced before they apply. An existing directory
// is NOT replayed — use Recover to restore state; Open is for a fresh plane
// (it fails if the directory already holds records or checkpoints, which
// guards against silently forking history).
func Open(k *core.Kernel, dir string, opts wal.Options) (*Plane, error) {
	sc, err := wal.Scan(dir)
	if err != nil {
		return nil, err
	}
	if len(sc.Records) > 0 {
		return nil, fmt.Errorf("ctrl: %s already holds %d records; use Recover", dir, len(sc.Records))
	}
	if _, _, err := wal.LatestCheckpoint(dir); err == nil {
		return nil, fmt.Errorf("ctrl: %s already holds a checkpoint; use Recover", dir)
	}
	l, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	p := New(k)
	p.wal = l
	return p, nil
}

// WAL exposes the attached log (nil for an in-memory plane).
func (p *Plane) WAL() *wal.Log { return p.wal }

// Durable reports whether mutations are write-ahead logged.
func (p *Plane) Durable() bool { return p.wal != nil }

// RecoveryStats reports what a Recover did.
type RecoveryStats struct {
	// CheckpointSeq is the sequence the restored checkpoint covered
	// (0: no checkpoint, full-log replay).
	CheckpointSeq uint64
	// Replayed counts log records applied after the checkpoint.
	Replayed int
	// Aborted counts records skipped because a later abort cancelled them.
	Aborted int
	// Skipped counts records that failed to apply on replay (divergent or
	// damaged history; skipping is the graceful floor, counted loudly).
	Skipped int
	// DiscardedBytes is the corrupt/torn log suffix length dropped.
	DiscardedBytes int64
	// Corruption explains the discard (wrapped wal.ErrCorruptRecord or
	// wal.ErrShortRead), or nil.
	Corruption error
	// LastSeq is the log position after recovery.
	LastSeq uint64
	// ElapsedNs is the wall time recovery took.
	ElapsedNs int64
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("recovery: checkpoint=#%d replayed=%d aborted=%d skipped=%d discarded=%dB last-seq=#%d in %.2fms",
		s.CheckpointSeq, s.Replayed, s.Aborted, s.Skipped, s.DiscardedBytes, s.LastSeq,
		float64(s.ElapsedNs)/1e6)
}

// Recover rebuilds a durable control plane from dir: construct a kernel
// from kcfg, run prep (subsystem helper/fallback registration — state the
// log does not carry), restore the newest valid checkpoint, replay the
// intact log suffix, verify invariants, and reattach the log for continued
// operation. Corrupt checkpoints fall back to the previous one; a corrupt
// or torn log suffix is discarded back to the last intact record boundary
// and reported in the stats, never half-applied.
func Recover(dir string, kcfg core.Config, opts wal.Options, prep func(*core.Kernel) error) (*Plane, RecoveryStats, error) {
	start := time.Now()
	var st RecoveryStats
	k := core.NewKernel(kcfg)
	if prep != nil {
		if err := prep(k); err != nil {
			return nil, st, fmt.Errorf("ctrl: recovery prep: %w", err)
		}
	}
	p := New(k)

	ckSeq, body, err := wal.LatestCheckpoint(dir)
	switch {
	case err == nil:
		if rerr := p.restore(body); rerr != nil {
			return nil, st, fmt.Errorf("ctrl: checkpoint restore: %w", rerr)
		}
		st.CheckpointSeq = ckSeq
	case errors.Is(err, wal.ErrNoCheckpoint):
		// Full-log replay from an empty kernel.
	default:
		return nil, st, err
	}

	sc, err := wal.Scan(dir)
	if err != nil {
		return nil, st, err
	}
	st.DiscardedBytes = sc.DiscardedBytes
	st.Corruption = sc.Corruption
	if len(sc.Records) > 0 && sc.Records[0].Seq > ckSeq+1 {
		// The log was compacted past the restore point and no valid
		// checkpoint covers the gap (e.g. every checkpoint is damaged):
		// replaying only the suffix would silently reconstruct partial
		// state, so fail loudly instead.
		return nil, st, fmt.Errorf("%w: log starts at #%d but restored state covers #%d",
			ErrRecoveryMismatch, sc.Records[0].Seq, ckSeq)
	}

	aborted := make(map[uint64]bool)
	for _, rec := range sc.Records {
		if rec.Kind == wal.KindAbort {
			aborted[rec.Ref] = true
		}
	}
	for _, rec := range sc.Records {
		if rec.Seq <= ckSeq || rec.Kind == wal.KindAbort {
			continue
		}
		if aborted[rec.Seq] {
			st.Aborted++
			continue
		}
		if aerr := p.replay(rec); aerr != nil {
			st.Skipped++
			k.Metrics.Counter("ctrl.recover_skipped").Inc()
			continue
		}
		st.Replayed++
	}
	if err := p.checkInvariants(); err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrRecoveryMismatch, err)
	}

	l, err := wal.Open(dir, opts)
	if err != nil {
		return nil, st, err
	}
	p.wal = l
	st.LastSeq = l.Seq()
	st.ElapsedNs = time.Since(start).Nanoseconds()

	k.Metrics.Counter("ctrl.recoveries").Inc()
	k.Metrics.Counter("ctrl.wal_records_replayed").Add(int64(st.Replayed))
	k.Metrics.Counter("ctrl.wal_records_aborted").Add(int64(st.Aborted))
	k.Metrics.Counter("ctrl.wal_bytes_discarded").Add(st.DiscardedBytes)
	k.Metrics.Gauge("ctrl.wal_last_seq").Set(int64(st.LastSeq))
	k.Metrics.Histogram("ctrl.recover_ns").Observe(st.ElapsedNs)
	return p, st, nil
}

// checkInvariants verifies the structural consistency a recovered plane
// must satisfy: name indexes resolve back to the same ids and allocators
// sit at or past every live id (so post-recovery allocations cannot collide
// with replayed references).
func (p *Plane) checkInvariants() error {
	k := p.K
	nextTable, nextProg, nextModel, nextMat := k.AllocState()
	for _, id := range k.TableIDs() {
		t, err := k.Table(id)
		if err != nil {
			return err
		}
		_, gotID, err := k.TableByName(t.Name)
		if err != nil || gotID != id {
			return fmt.Errorf("table %d (%q) name index resolves to %d (%v)", id, t.Name, gotID, err)
		}
		if id > nextTable {
			return fmt.Errorf("table id %d beyond allocator %d", id, nextTable)
		}
	}
	for _, id := range k.ProgramIDs() {
		prog, err := k.Program(id)
		if err != nil {
			return err
		}
		gotID, err := k.ProgramID(prog.Name)
		if err != nil || gotID != id {
			return fmt.Errorf("program %d (%q) name index resolves to %d (%v)", id, prog.Name, gotID, err)
		}
		if id > nextProg {
			return fmt.Errorf("program id %d beyond allocator %d", id, nextProg)
		}
	}
	for _, id := range k.ModelIDs() {
		if id > nextModel {
			return fmt.Errorf("model id %d beyond allocator %d", id, nextModel)
		}
	}
	for _, id := range k.MatrixIDs() {
		if id > nextMat {
			return fmt.Errorf("matrix id %d beyond allocator %d", id, nextMat)
		}
	}
	return nil
}

// --- checkpoint -----------------------------------------------------------

// checkpointRecords renders the plane's durable state as the record sequence
// that rebuilds it from an empty kernel, resources at their ids, in admission
// order: engine quarantines (stashed by content hash, so their place is
// free) and tenants first, so quota and name-prefix ownership resolve for
// what follows; matrices; models, each registered at its current version;
// tables with their rows and default, before the programs whose
// verification resolves them; and one alloc-state record closing the
// sequence. Telemetry is not state: recovery restores decisions, not
// metrics. Callers quiesce mutations
// (Checkpoint holds commitMu and walMu).
func (p *Plane) checkpointRecords() ([]*wal.Record, error) {
	k := p.K
	var recs []*wal.Record
	for _, q := range k.EngineQuarantines() {
		recs = append(recs, &wal.Record{Kind: wal.KindIncident, Incident: &wal.Incident{Hash: q.Hash, To: q.Tier.String()}})
	}
	for _, name := range k.TenantNames() {
		q, err := k.TenantQuotaOf(name)
		if err != nil {
			return nil, err
		}
		recs = append(recs, &wal.Record{Kind: wal.KindRegisterTenant, Tenant: name, Quota: walQuota(q)})
	}
	for _, id := range k.MatrixIDs() {
		m, err := k.Matrix(id)
		if err != nil {
			return nil, err
		}
		recs = append(recs, &wal.Record{Kind: wal.KindRegisterMatrix, ID: id, Matrix: &wal.Matrix{In: m.In, Out: m.Out, W: m.W, B: m.B}})
	}
	for _, id := range k.ModelIDs() {
		m, err := k.Model(id)
		if err != nil {
			return nil, err
		}
		enc, err := encodeModel(m)
		if err != nil {
			return nil, fmt.Errorf("model %d: %w", id, err)
		}
		recs = append(recs, &wal.Record{Kind: wal.KindRegisterModel, ID: id, Tenant: k.ModelOwner(id), Model: enc})
	}
	for _, id := range k.TableIDs() {
		t, err := k.Table(id)
		if err != nil {
			return nil, err
		}
		rec := &wal.Record{Kind: wal.KindCreateTable, ID: id, Table: t.Name, Hook: t.Hook, Match: uint8(t.Kind)}
		for _, e := range t.Entries() {
			rec.Rows = append(rec.Rows, walEntry(e))
		}
		if d := t.Default(); d != nil {
			a := walAction(d.Action)
			rec.Action = &a
		}
		recs = append(recs, rec)
	}
	for _, id := range k.ProgramIDs() {
		prog, err := k.Program(id)
		if err != nil {
			return nil, err
		}
		recs = append(recs, &wal.Record{Kind: wal.KindLoadProgram, ID: id, Program: walProgram(prog)})
	}
	alloc := &wal.Alloc{Version: p.Version()}
	alloc.Table, alloc.Prog, alloc.Model, alloc.Mat = k.AllocState()
	return append(recs, &wal.Record{Kind: wal.KindAllocState, Alloc: alloc}), nil
}

// restore applies a checkpoint's record sequence to a fresh plane. Unlike
// log replay, every record must apply: a checkpoint is one consistent state.
func (p *Plane) restore(body []byte) error {
	recs, err := wal.DecodeCheckpoint(body)
	for i := 0; err == nil && i < len(recs); i++ {
		err = p.replay(recs[i])
	}
	return err
}

// Checkpoint writes the record sequence of the full state covering
// everything logged so far, then compacts the log — but only back to the OLDEST retained
// checkpoint, not the new one: the fallback path (corrupt newest checkpoint
// → previous checkpoint + longer suffix) needs the records between the two
// checkpoints to still be in the log. Replay after a checkpoint is restore
// + short suffix instead of the whole history. Returns the sequence number
// the checkpoint covers.
func (p *Plane) Checkpoint() (uint64, error) {
	if p.wal == nil {
		return 0, fmt.Errorf("ctrl: checkpoint requires a durable plane")
	}
	// commitMu quiesces transactions and canary transitions; walMu
	// quiesces simple mutators. Together the checkpoint is point-in-time
	// consistent with the log position.
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	p.walMu.Lock()
	defer p.walMu.Unlock()
	recs, err := p.checkpointRecords()
	if err != nil {
		return 0, err
	}
	body, err := wal.EncodeCheckpoint(recs)
	if err != nil {
		return 0, err
	}
	seq := p.wal.Seq()
	if err := wal.WriteCheckpoint(p.wal.Dir(), seq, body); err != nil {
		return 0, err
	}
	seqs, err := wal.Checkpoints(p.wal.Dir())
	if err != nil {
		return 0, err
	}
	if len(seqs) >= 2 {
		// seqs[0] is the oldest checkpoint WriteCheckpoint retained; every
		// record it covers is now unreachable by any recovery path.
		if err := p.wal.Compact(seqs[0]); err != nil {
			return 0, err
		}
	}
	p.K.Metrics.Counter("ctrl.checkpoints").Inc()
	p.K.Metrics.Gauge("ctrl.wal_last_seq").Set(int64(seq))
	return seq, nil
}

// --- equivalence ----------------------------------------------------------

// Inventory renders the plane's durable state as deterministic, sorted
// lines — the comparison basis for recovery equivalence and the payload of
// rmtkctl's recover summary.
func (p *Plane) Inventory() []string {
	k := p.K
	var lines []string
	lines = append(lines, fmt.Sprintf("version %d", p.Version()))
	for _, name := range k.TenantNames() {
		q, err := k.TenantQuotaOf(name)
		if err != nil {
			continue
		}
		lines = append(lines, fmt.Sprintf("tenant %s class=%d rate=%d burst=%d weight=%d max=%d/%d budget=%d slo=%d/%d",
			name, q.Class, q.RatePerSec, q.Burst, q.Weight, q.MaxTables, q.MaxPrograms,
			q.StepBudget, q.StepSLO, q.LatencySLONs))
	}
	for _, id := range k.TableIDs() {
		t, err := k.Table(id)
		if err != nil {
			continue
		}
		lines = append(lines, fmt.Sprintf("table %d %s hook=%s kind=%s entries=%d", id, t.Name, t.Hook, t.Kind, t.Len()))
		for _, e := range t.Entries() {
			lines = append(lines, fmt.Sprintf("  entry key=%d plen=%d lo=%d hi=%d mask=%d prio=%d act=%s/%d/%d/%d",
				e.Key, e.PrefixLen, e.Lo, e.Hi, e.Mask, e.Priority,
				e.Action.Kind, e.Action.Param, e.Action.ProgID, e.Action.ModelID))
		}
		if d := t.Default(); d != nil {
			lines = append(lines, fmt.Sprintf("  default act=%s/%d/%d/%d",
				d.Action.Kind, d.Action.Param, d.Action.ProgID, d.Action.ModelID))
		}
	}
	for _, id := range k.ProgramIDs() {
		prog, err := k.Program(id)
		if err != nil {
			continue
		}
		lines = append(lines, fmt.Sprintf("program %d %s hook=%s code=%08x pure=%v",
			id, prog.Name, prog.Hook, crc32.Checksum(prog.Encode(), crc32.MakeTable(crc32.Castagnoli)), prog.Pure))
	}
	for _, id := range k.ModelIDs() {
		m, err := k.Model(id)
		if err != nil {
			continue
		}
		owner := ""
		if o := k.ModelOwner(id); o != "" {
			owner = " owner=" + o
		}
		if enc, err := encodeModel(m); err == nil {
			lines = append(lines, fmt.Sprintf("model %d codec=%s data=%08x%s",
				id, enc.Codec, crc32.Checksum(enc.Data, crc32.MakeTable(crc32.Castagnoli)), owner))
		} else {
			ops, bytes := m.Cost()
			lines = append(lines, fmt.Sprintf("model %d opaque feats=%d ops=%d bytes=%d",
				id, m.NumFeatures(), ops, bytes))
		}
	}
	for _, id := range k.MatrixIDs() {
		m, err := k.Matrix(id)
		if err != nil {
			continue
		}
		lines = append(lines, fmt.Sprintf("matrix %d %dx%d bytes=%d", id, m.Out, m.In, m.Bytes()))
	}
	return lines
}

// InventoryDigest hashes the inventory into one comparable value.
func (p *Plane) InventoryDigest() uint32 {
	return crc32.Checksum([]byte(strings.Join(p.Inventory(), "\n")), crc32.MakeTable(crc32.Castagnoli))
}

// VerifyEquivalence checks that plane b is decision-equivalent to plane a:
// identical durable inventories, identical engine quarantines, and identical
// fire verdicts for every probe key on every hook of a. Differences wrap ErrRecoveryMismatch. The
// probe fires mutate only statistics, never decisions.
func VerifyEquivalence(a, b *Plane, probeKeys []int64) error {
	ai, bi := a.Inventory(), b.Inventory()
	if len(ai) != len(bi) {
		return fmt.Errorf("%w: inventory %d vs %d lines", ErrRecoveryMismatch, len(ai), len(bi))
	}
	for i := range ai {
		if ai[i] != bi[i] {
			return fmt.Errorf("%w: inventory line %d: %q vs %q", ErrRecoveryMismatch, i, ai[i], bi[i])
		}
	}
	if qa, qb := a.K.EngineQuarantines(), b.K.EngineQuarantines(); !slices.Equal(qa, qb) {
		return fmt.Errorf("%w: engine quarantines %v vs %v", ErrRecoveryMismatch, qa, qb)
	}
	hooks := a.K.Hooks()
	sort.Strings(hooks)
	for _, hook := range hooks {
		for _, key := range probeKeys {
			ra := a.K.Fire(hook, key, key+1, 0)
			rb := b.K.Fire(hook, key, key+1, 0)
			if ra.Verdict != rb.Verdict || ra.Matched != rb.Matched ||
				len(ra.Emissions) != len(rb.Emissions) {
				return fmt.Errorf("%w: hook %s key %d: verdict %d/%d matched %d/%d emissions %d/%d",
					ErrRecoveryMismatch, hook, key, ra.Verdict, rb.Verdict,
					ra.Matched, rb.Matched, len(ra.Emissions), len(rb.Emissions))
			}
			for i := range ra.Emissions {
				if ra.Emissions[i] != rb.Emissions[i] {
					return fmt.Errorf("%w: hook %s key %d: emission %d: %d vs %d",
						ErrRecoveryMismatch, hook, key, i, ra.Emissions[i], rb.Emissions[i])
				}
			}
		}
	}
	return nil
}
