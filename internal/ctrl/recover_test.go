package ctrl

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/ml/dt"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

var probeKeys = []int64{0, 1, 2, 3, 4, 5, 6, 7, 100}

func newDurablePlane(t *testing.T) (*Plane, string) {
	t.Helper()
	dir := t.TempDir()
	p, err := Open(core.NewKernel(core.Config{}), dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return p, dir
}

func testTree(label int64) *core.TreeModel {
	return core.NewTreeModel(&dt.Tree{
		NumFeats: 1,
		Nodes: []dt.Node{
			{Feat: 0, Thresh: 4, Left: 1, Right: 2},
			{Feat: -1, Label: 0},
			{Feat: -1, Label: label},
		},
	})
}

// buildWorkload drives one of every durable mutation kind through p:
// tables across match disciplines, entries, programs, model registration,
// pushes, an action update, an entry removal, a committed transaction, a
// canary-promoted model and a program retarget.
func buildWorkload(t *testing.T, p *Plane) {
	t.Helper()
	if _, _, err := p.CreateTable("flow_tab", "hook/rec", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CreateTable("pfx_tab", "hook/pfx", table.MatchPrefix); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		if err := p.AddEntry("flow_tab", &table.Entry{
			Key: k, Action: table.Action{Kind: table.ActionParam, Param: int64(10 * k)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddEntry("pfx_tab", &table.Entry{
		Key: 0x40, PrefixLen: 58, Action: table.Action{Kind: table.ActionParam, Param: 7},
	}); err != nil {
		t.Fatal(err)
	}

	progA, _, err := p.LoadProgram(&isa.Program{
		Name: "rec_a", Hook: "hook/rec",
		Insns: isa.MustAssemble("movimm r0, 3\nexit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	progB, _, err := p.LoadProgram(&isa.Program{
		Name: "rec_b", Hook: "hook/rec",
		Insns: isa.MustAssemble("movimm r0, 5\nexit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("flow_tab", &table.Entry{
		Key: 5, Action: table.Action{Kind: table.ActionProgram, ProgID: progA},
	}); err != nil {
		t.Fatal(err)
	}

	mid, err := p.RegisterModel(testTree(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("flow_tab", &table.Entry{
		Key: 6, Action: table.Action{Kind: table.ActionInfer, ModelID: mid},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.PushModel(mid, testTree(2), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.PushModel(mid, testTree(3), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateAction("flow_tab", 2, table.Action{Kind: table.ActionParam, Param: 99}); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveEntry("flow_tab", &table.Entry{Key: 3}); err != nil {
		t.Fatal(err)
	}

	txn := p.Begin()
	txn.CreateTable("txn_tab", "hook/txn", table.MatchExact)
	txn.AddEntry("txn_tab", &table.Entry{Key: 8, Action: table.Action{Kind: table.ActionParam, Param: 88}})
	txn.PushModel(mid, testTree(4), 0, 0)
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// Canary-promote a fifth model version: gates wide open, one shadow fire.
	c, err := p.PushModelCanary("hook/rec", mid, testTree(5), 0, 0, CanaryConfig{
		MinShadowFires: 1, MaxDivergenceFrac: 1, MaxTrapFrac: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.K.Fire("hook/rec", 6, 0, 0)
	if st := c.Advance(); st != CanaryPromoted {
		t.Fatalf("canary state = %v, err = %v", st, c.GateErr())
	}
	// Retarget rec_a's entry to rec_b, a program rollout's commit.
	if err := p.UpdateAction("flow_tab", 5, table.Action{Kind: table.ActionProgram, ProgID: progB}); err != nil {
		t.Fatal(err)
	}
}

// copyDir clones a WAL directory, optionally truncating the log to n bytes
// (n < 0 keeps it whole).
func copyDir(t *testing.T, src string, logBytes int64) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if logBytes >= 0 && filepath.Join(src, e.Name()) == wal.LogPath(src) {
			if logBytes < int64(len(data)) {
				data = data[:logBytes]
			}
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func recoverDir(t *testing.T, dir string) (*Plane, RecoveryStats) {
	t.Helper()
	p, st, err := Recover(dir, core.Config{}, wal.Options{NoSync: true}, nil)
	if err != nil {
		t.Fatalf("recover %s: %v (%s)", dir, err, st)
	}
	return p, st
}

// recoverCheckpoint recovers a fresh plane from p's checkpoint at seq
// alone, with no log beside it.
func recoverCheckpoint(t *testing.T, p *Plane, seq uint64) (*Plane, RecoveryStats) {
	t.Helper()
	body, err := os.ReadFile(wal.CheckpointPath(p.WAL().Dir(), seq))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(wal.CheckpointPath(dir, seq), body, 0o644); err != nil {
		t.Fatal(err)
	}
	return recoverDir(t, dir)
}

// detachWAL closes and removes the plane's log so a test can keep applying
// records without re-logging (mirrors Recover's replay mode).
func detachWAL(t *testing.T, p *Plane) {
	t.Helper()
	if err := p.wal.Close(); err != nil {
		t.Fatal(err)
	}
	p.wal = nil
}

// TestRecoveryEquivalence is the acceptance test for the durable control
// plane: recovery of the full log is decision-equivalent to the live plane,
// and a crash at ANY record boundary recovers to exactly the state the
// committed prefix denotes — proven by replaying the remaining suffix onto
// each recovered prefix and landing bit-equal to the live plane.
func TestRecoveryEquivalence(t *testing.T) {
	p, dir := newDurablePlane(t)
	buildWorkload(t, p)

	rec, st := recoverDir(t, copyDir(t, dir, -1))
	if err := VerifyEquivalence(p, rec, probeKeys); err != nil {
		t.Fatalf("full recovery diverged: %v (%s)", err, st)
	}
	if rec.Version() != p.Version() {
		t.Fatalf("version %d, want %d", rec.Version(), p.Version())
	}

	sc, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) < 15 {
		t.Fatalf("workload logged only %d records", len(sc.Records))
	}
	boundaries := append(append([]int64{0}, sc.Offsets[1:]...), sc.ValidBytes)
	for i, cut := range boundaries {
		pr, st := recoverDir(t, copyDir(t, dir, cut))
		if got := int(st.LastSeq); got != i {
			t.Fatalf("boundary %d: recovered to seq %d", i, got)
		}
		// Checkpoint the recovered prefix and recover from that checkpoint
		// alone: the record sequence a checkpoint writes must rebuild
		// exactly the state it was taken from.
		ckSeq, err := pr.Checkpoint()
		if err != nil {
			t.Fatalf("boundary %d: checkpoint: %v", i, err)
		}
		ck, ckSt := recoverCheckpoint(t, pr, ckSeq)
		if ckSt.Replayed != 0 || ck.Version() != pr.Version() {
			t.Fatalf("boundary %d: checkpoint-only recovery replayed %d, version %d want %d",
				i, ckSt.Replayed, ck.Version(), pr.Version())
		}
		if err := VerifyEquivalence(pr, ck, probeKeys); err != nil {
			t.Fatalf("boundary %d: checkpoint-only recovery: %v", i, err)
		}
		// Replay the suffix the crash cut off; the result must land exactly
		// on the live plane's state, proving the prefix state was on the
		// committed trajectory (not merely self-consistent).
		detachWAL(t, pr)
		for _, r := range sc.Records[i:] {
			if err := pr.replay(r); err != nil {
				t.Fatalf("boundary %d: apply #%d (%s): %v", i, r.Seq, r.Kind, err)
			}
		}
		if err := VerifyEquivalence(p, pr, probeKeys); err != nil {
			t.Fatalf("boundary %d: %v", i, err)
		}
	}
}

// TestRecoveryTornTail: a torn final write costs exactly the final record —
// recovery lands on the state of the previous boundary, nothing more is
// discarded, and the damage is reported.
func TestRecoveryTornTail(t *testing.T) {
	p, dir := newDurablePlane(t)
	buildWorkload(t, p)
	sc, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := len(sc.Records)

	torn := copyDir(t, dir, -1)
	if _, err := fault.FSTornTail(torn, 0); err != nil {
		t.Fatal(err)
	}
	pr, st := recoverDir(t, torn)
	if st.Corruption == nil || !errors.Is(st.Corruption, wal.ErrShortRead) {
		t.Fatalf("corruption = %v, want ErrShortRead", st.Corruption)
	}
	if st.DiscardedBytes <= 0 {
		t.Fatalf("discarded %d bytes", st.DiscardedBytes)
	}
	if int(st.LastSeq) != n-1 {
		t.Fatalf("recovered to seq %d, want %d", st.LastSeq, n-1)
	}
	want, _ := recoverDir(t, copyDir(t, dir, sc.Offsets[n-1]))
	if err := VerifyEquivalence(want, pr, probeKeys); err != nil {
		t.Fatalf("torn-tail recovery != previous boundary: %v", err)
	}
}

// TestRecoveryCRCFlip: bit rot inside record i is caught by the checksum;
// recovery keeps the i intact records before it and discards the suffix.
func TestRecoveryCRCFlip(t *testing.T) {
	p, dir := newDurablePlane(t)
	buildWorkload(t, p)
	full, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}

	flipped := copyDir(t, dir, -1)
	if _, err := fault.FSFlipBit(flipped, 42); err != nil {
		t.Fatal(err)
	}
	after, err := wal.Scan(flipped)
	if err != nil {
		t.Fatal(err)
	}
	intact := len(after.Records)
	if intact >= len(full.Records) {
		t.Fatalf("flip left all %d records intact", intact)
	}
	pr, st := recoverDir(t, flipped)
	if !errors.Is(st.Corruption, wal.ErrCorruptRecord) {
		t.Fatalf("corruption = %v, want ErrCorruptRecord", st.Corruption)
	}
	if int(st.LastSeq) != intact {
		t.Fatalf("recovered to seq %d, want %d", st.LastSeq, intact)
	}
	cut := full.ValidBytes
	if intact < len(full.Records) {
		cut = full.Offsets[intact]
	}
	want, _ := recoverDir(t, copyDir(t, dir, cut))
	if err := VerifyEquivalence(want, pr, probeKeys); err != nil {
		t.Fatalf("flip recovery != intact prefix: %v", err)
	}
}

// TestRecoveryDropSync: an fsync that never hit the platter loses whole
// records at a clean boundary; recovery lands exactly there.
func TestRecoveryDropSync(t *testing.T) {
	p, dir := newDurablePlane(t)
	buildWorkload(t, p)
	sc, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := len(sc.Records)

	dropped := copyDir(t, dir, -1)
	if got, err := fault.FSDropSync(dropped, 3); err != nil || got != 3 {
		t.Fatalf("drop-sync: %d, %v", got, err)
	}
	_, st := recoverDir(t, dropped)
	if int(st.LastSeq) != n-3 {
		t.Fatalf("recovered to seq %d, want %d", st.LastSeq, n-3)
	}
	if st.Corruption != nil {
		t.Fatalf("clean truncation reported corruption: %v", st.Corruption)
	}
}

// TestCheckpointRecovery: a checkpoint bounds replay to the suffix, and the
// recovered plane still matches the live one exactly.
func TestCheckpointRecovery(t *testing.T) {
	p, dir := newDurablePlane(t)
	buildWorkload(t, p)
	ckSeq, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckSeq == 0 {
		t.Fatal("checkpoint covered nothing")
	}
	// Post-checkpoint suffix.
	if err := p.AddEntry("flow_tab", &table.Entry{
		Key: 9, Action: table.Action{Kind: table.ActionParam, Param: 9},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateAction("flow_tab", 1, table.Action{Kind: table.ActionParam, Param: 11}); err != nil {
		t.Fatal(err)
	}

	rec, st := recoverDir(t, copyDir(t, dir, -1))
	if st.CheckpointSeq != ckSeq {
		t.Fatalf("restored checkpoint #%d, want #%d", st.CheckpointSeq, ckSeq)
	}
	if st.Replayed != 2 {
		t.Fatalf("replayed %d records after checkpoint, want 2", st.Replayed)
	}
	if err := VerifyEquivalence(p, rec, probeKeys); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptFallsBack: a damaged newest checkpoint falls back to
// the previous one plus a longer suffix — same final state.
func TestCheckpointCorruptFallsBack(t *testing.T) {
	p, dir := newDurablePlane(t)
	buildWorkload(t, p)
	ck1, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("flow_tab", &table.Entry{
		Key: 9, Action: table.Action{Kind: table.ActionParam, Param: 9},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateAction("flow_tab", 1, table.Action{Kind: table.ActionParam, Param: 11}); err != nil {
		t.Fatal(err)
	}

	dmg := copyDir(t, dir, -1)
	if _, err := fault.FSTruncateCheckpoint(dmg); err != nil {
		t.Fatal(err)
	}
	rec, st := recoverDir(t, dmg)
	if st.CheckpointSeq != ck1 {
		t.Fatalf("fell back to checkpoint #%d, want #%d", st.CheckpointSeq, ck1)
	}
	if err := VerifyEquivalence(p, rec, probeKeys); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointReplaysModelPushes: a checkpoint registers each model once,
// at its current version, and a checkpoint that registers a model and then
// pushes later versions over it (how model history was once checkpointed)
// still restores the last version pushed.
func TestCheckpointReplaysModelPushes(t *testing.T) {
	predicts := func(t *testing.T, p *Plane, id, want int64) {
		t.Helper()
		m, err := p.K.Model(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Predict([]int64{100}); got != want {
			t.Fatalf("model %d predicts %d, want v%d's %d", id, got, want, want)
		}
	}
	modelRecords := func(t *testing.T, p *Plane, seq uint64) (kinds []wal.Kind) {
		t.Helper()
		latest, body, err := wal.LatestCheckpoint(p.WAL().Dir())
		if err != nil || latest != seq {
			t.Fatalf("latest checkpoint #%d (%v), want #%d", latest, err, seq)
		}
		recs, err := wal.DecodeCheckpoint(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Kind == wal.KindRegisterModel || r.Kind == wal.KindPushModel {
				kinds = append(kinds, r.Kind)
			}
		}
		return kinds
	}

	p, _ := newDurablePlane(t)
	mid, err := p.RegisterModel(testTree(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{2, 3} {
		if err := p.PushModel(mid, testTree(v), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if kinds := modelRecords(t, p, seq); len(kinds) != 1 || kinds[0] != wal.KindRegisterModel {
		t.Fatalf("checkpoint holds model records %v, want one register-model", kinds)
	}
	rec, _ := recoverCheckpoint(t, p, seq)
	predicts(t, rec, mid, 3)

	// The older shape: register v1, then push v2 and v3 over it.
	var recs []*wal.Record
	for v := int64(1); v <= 3; v++ {
		enc, err := encodeModel(testTree(v))
		if err != nil {
			t.Fatal(err)
		}
		r := &wal.Record{Kind: wal.KindPushModel, ModelID: 1, Model: enc}
		if v == 1 {
			r = &wal.Record{Kind: wal.KindRegisterModel, ID: 1, Model: enc}
		}
		recs = append(recs, r)
	}
	recs = append(recs, &wal.Record{Kind: wal.KindAllocState, Alloc: &wal.Alloc{Model: 1}})
	body, err := wal.EncodeCheckpoint(recs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := wal.WriteCheckpoint(dir, 3, body); err != nil {
		t.Fatal(err)
	}
	old, _ := recoverDir(t, dir)
	predicts(t, old, 1, 3)
	if seq, err = old.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if kinds := modelRecords(t, old, seq); len(kinds) != 1 || kinds[0] != wal.KindRegisterModel {
		t.Fatalf("re-checkpoint holds model records %v, want one register-model", kinds)
	}
}

// oldFormatCheckpoint is a checkpoint payload as written before checkpoints
// became record sequences: a JSON state snapshot of one table and its entry.
const oldFormatCheckpoint = `{"version":0,"next_table":1,"next_prog":0,"next_model":0,"next_mat":0,` +
	`"tables":[{"id":1,"name":"fz_tab","hook":"hook/fz","kind":0,"entries":[{"key":1,"act":{"k":4,"p":4}}]}]}`

// TestCheckpointRefusesOldFormat: recovery refuses an old-format checkpoint
// with wal.ErrCheckpointFormat rather than restoring it as an empty state.
func TestCheckpointRefusesOldFormat(t *testing.T) {
	dir := t.TempDir()
	if err := wal.WriteCheckpoint(dir, 2, []byte(oldFormatCheckpoint)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir, core.Config{}, wal.Options{NoSync: true}, nil); !errors.Is(err, wal.ErrCheckpointFormat) {
		t.Fatalf("recover over an old-format checkpoint: %v, want ErrCheckpointFormat", err)
	}
}

// TestAbortCompensation: a mutation that appends but fails to apply is
// cancelled by its abort record — replay lands on the pre-mutation state.
func TestAbortCompensation(t *testing.T) {
	p, dir := newDurablePlane(t)
	buildWorkload(t, p)
	// Key 1000 does not exist: the record lands in the log, the apply
	// fails, and a compensating abort record follows.
	if err := p.UpdateAction("flow_tab", 1000, table.Action{Kind: table.ActionParam, Param: 1}); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("update of missing key: %v", err)
	}
	rec, st := recoverDir(t, copyDir(t, dir, -1))
	if st.Aborted != 1 {
		t.Fatalf("aborted %d records, want 1", st.Aborted)
	}
	if err := VerifyEquivalence(p, rec, probeKeys); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRespectsIDHoles: removed resources leave holes in the id
// space; a checkpoint restore must reproduce them so replayed references
// to later ids still resolve.
func TestRecoveryRespectsIDHoles(t *testing.T) {
	p, dir := newDurablePlane(t)
	buildWorkload(t, p)
	// Punch holes: drop the txn table and program rec_a, then checkpoint
	// and allocate past the holes.
	tbID, err := func() (int64, error) { _, id, err := p.K.TableByName("txn_tab"); return id, err }()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.K.RemoveTable(tbID); err != nil {
		t.Fatal(err)
	}
	progA, err := p.K.ProgramID("rec_a")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.K.RemoveProgram(progA); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	progC, _, err := p.LoadProgram(&isa.Program{
		Name: "rec_c", Hook: "hook/rec",
		Insns: isa.MustAssemble("movimm r0, 7\nexit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if progC <= progA {
		t.Fatalf("allocator recycled id %d (hole at %d)", progC, progA)
	}
	if err := p.AddEntry("flow_tab", &table.Entry{
		Key: 12, Action: table.Action{Kind: table.ActionProgram, ProgID: progC},
	}); err != nil {
		t.Fatal(err)
	}

	rec, _ := recoverDir(t, copyDir(t, dir, -1))
	if err := VerifyEquivalence(p, rec, probeKeys); err != nil {
		t.Fatal(err)
	}
	gotC, err := rec.K.ProgramID("rec_c")
	if err != nil || gotC != progC {
		t.Fatalf("rec_c restored at %d (%v), want %d", gotC, err, progC)
	}
}

// TestDurableRejectsNonReplayable: operations the log cannot carry are
// refused up front on a durable plane — a model with no codec, pushed
// directly or in a transaction — and Open refuses a directory that already
// has history.
func TestDurableRejectsNonReplayable(t *testing.T) {
	p, dir := newDurablePlane(t)
	opaque := &core.FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1}

	if _, err := p.RegisterModel(opaque); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("register opaque model: %v", err)
	}
	mid, err := p.RegisterModel(testTree(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PushModel(mid, opaque, 0, 0); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("push opaque model: %v", err)
	}
	if _, err := p.PushModelCanary("hook/x", mid, opaque, 0, 0, CanaryConfig{}); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("canary opaque model: %v", err)
	}

	txn := p.Begin()
	txn.PushModel(mid, opaque, 0, 0)
	if err := txn.Commit(); !errors.Is(err, ErrNotReplayable) ||
		!errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("txn with opaque model: %v", err)
	}

	if _, err := Open(core.NewKernel(core.Config{}), dir, wal.Options{NoSync: true}); err == nil {
		t.Fatal("Open accepted a directory with history")
	}
}

// TestVerifyEquivalenceDetectsDrift: the equivalence checker actually fires
// on divergence (guarding the guard).
func TestVerifyEquivalenceDetectsDrift(t *testing.T) {
	a := newPlane(t)
	b := newPlane(t)
	for _, p := range []*Plane{a, b} {
		if _, _, err := p.CreateTable("t", "hook/d", table.MatchExact); err != nil {
			t.Fatal(err)
		}
		if err := p.AddEntry("t", &table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 5}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := VerifyEquivalence(a, b, probeKeys); err != nil {
		t.Fatalf("identical planes diverged: %v", err)
	}
	if err := b.UpdateAction("t", 1, table.Action{Kind: table.ActionParam, Param: 6}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivalence(a, b, probeKeys); !errors.Is(err, ErrRecoveryMismatch) {
		t.Fatalf("drift undetected: %v", err)
	}
}
