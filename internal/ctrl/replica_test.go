package ctrl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

func durablePlane(t *testing.T) *Plane {
	t.Helper()
	p, err := Open(core.NewKernel(core.Config{}), t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.WAL().Close() })
	return p
}

// shipAll replays every record of src's log into dst via ApplyReplicated —
// a minimal in-test stand-in for the cluster shipping protocol.
func shipAll(t *testing.T, src, dst *Plane) {
	t.Helper()
	sc, err := wal.Scan(src.WAL().Dir())
	if err != nil {
		t.Fatal(err)
	}
	from := dst.WAL().Seq()
	for _, rec := range sc.Records {
		if rec.Seq <= from {
			continue
		}
		if err := dst.ApplyReplicated(rec); err != nil {
			t.Fatalf("apply #%d (%s): %v", rec.Seq, rec.Kind, err)
		}
	}
}

// TestReplicaShipping: records logged on a leader and applied on a
// follower produce identical state, identical logs, and identical config
// versions.
func TestReplicaShipping(t *testing.T) {
	leader, follower := durablePlane(t), durablePlane(t)
	leader.SetLogEpoch(3)

	prog, _, err := leader.LoadProgram(&isa.Program{
		Name: "p", Insns: isa.MustAssemble("movimm r0, 9\nexit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := leader.CreateTable("t", "h/x", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if err := leader.AddEntry("t", &table.Entry{
		Key: 5, Action: table.Action{Kind: table.ActionProgram, ProgID: prog},
	}); err != nil {
		t.Fatal(err)
	}

	shipAll(t, leader, follower)

	if got, want := follower.InventoryDigest(), leader.InventoryDigest(); got != want {
		t.Fatalf("digest %08x != leader %08x", got, want)
	}
	if got, want := follower.Version(), leader.Version(); got != want {
		t.Fatalf("version %d != leader %d", got, want)
	}
	if res := follower.K.Fire("h/x", 5, 0, 0); res.Verdict != 9 {
		t.Fatalf("follower verdict = %d", res.Verdict)
	}
	// Byte-identical logs, every record carrying the leader's epoch stamp.
	a, _ := wal.Scan(leader.WAL().Dir())
	b, _ := wal.Scan(follower.WAL().Dir())
	if len(a.Records) != len(b.Records) {
		t.Fatalf("log lengths %d != %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].Epoch != 3 || b.Records[i].Epoch != 3 {
			t.Fatalf("record #%d epochs = %d/%d, want 3",
				a.Records[i].Seq, a.Records[i].Epoch, b.Records[i].Epoch)
		}
	}
}

// TestReplicaCheckpointWaitsForApply: a Checkpoint that arrives while a
// shipped record sits between its append and its apply waits for the apply,
// so the checkpoint covering that record's sequence number holds its state.
// (Were the checkpoint to run in the gap, recovering from it would skip the
// record for good.) Run it under -race.
func TestReplicaCheckpointWaitsForApply(t *testing.T) {
	leader, follower := durablePlane(t), durablePlane(t)
	if _, _, err := leader.CreateTable("t", "h/x", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if err := leader.AddEntry("t", &table.Entry{
		Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 7},
	}); err != nil {
		t.Fatal(err)
	}
	sc, err := wal.Scan(leader.WAL().Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicated(sc.Records[0]); err != nil {
		t.Fatal(err)
	}

	// The crash hook pauses the add-entry between its append and its apply.
	paused, release := make(chan struct{}), make(chan struct{})
	follower.crashAfter = func(k wal.Kind) bool {
		if k == wal.KindAddEntry {
			close(paused)
			<-release
		}
		return false
	}
	applied := make(chan error, 1)
	go func() { applied <- follower.ApplyReplicated(sc.Records[1]) }()
	<-paused
	type ckpt struct {
		seq uint64
		err error
	}
	done := make(chan ckpt, 1)
	go func() {
		seq, err := follower.Checkpoint()
		done <- ckpt{seq, err}
	}()
	select {
	case ck := <-done:
		t.Fatalf("checkpoint #%d (%v) ran between a shipped record's append and its apply", ck.seq, ck.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	ck := <-done
	if ck.err != nil || ck.seq != 2 {
		t.Fatalf("checkpoint = #%d, %v; want #2", ck.seq, ck.err)
	}
	rec, _ := recoverCheckpoint(t, follower, ck.seq)
	if res := rec.K.Fire("h/x", 1, 0, 0); res.Verdict != 7 {
		t.Fatalf("checkpoint of #2 lacks its entry: verdict %d", res.Verdict)
	}
}

// TestReplicaSeqGap: a shipped record that skips ahead is refused with
// wal.ErrSeqGap before any state changes.
func TestReplicaSeqGap(t *testing.T) {
	p := durablePlane(t)
	err := p.ApplyReplicated(&wal.Record{
		Seq: 7, Kind: wal.KindCreateTable, Table: "t", Hook: "h", Match: uint8(table.MatchExact),
	})
	if !errors.Is(err, wal.ErrSeqGap) {
		t.Fatalf("err = %v, want ErrSeqGap", err)
	}
	if p.WAL().Seq() != 0 {
		t.Fatal("gap append still advanced the log")
	}
}

// TestReplicaAbortMirroring: a shipped record that fails to apply is held
// pending; the leader's compensating abort settles it without forking the
// follower's log.
func TestReplicaAbortMirroring(t *testing.T) {
	p := durablePlane(t)
	// An entry for a table that doesn't exist fails to apply, exactly as it
	// would have on the leader (which then logged the abort).
	bad := &wal.Record{Seq: 1, Kind: wal.KindAddEntry, Table: "missing",
		Entry: &wal.Entry{Key: 1}, Bump: true}
	if err := p.ApplyReplicated(bad); err != nil {
		t.Fatalf("failed apply should be held pending, got %v", err)
	}
	if got := p.K.Metrics.Counter("ctrl.replica_apply_failures").Load(); got != 1 {
		t.Fatalf("replica_apply_failures = %d", got)
	}
	// The leader's abort is the next shipped record.
	if err := p.ApplyReplicated(&wal.Record{Seq: 2, Kind: wal.KindAbort, Ref: 1}); err != nil {
		t.Fatalf("mirrored abort: %v", err)
	}
	// Both records are in the log; Recover sees the abort pair and skips it.
	p2, rep, err := Recover(p.WAL().Dir(), core.Config{}, wal.Options{NoSync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.WAL().Close()
	if rep.Aborted != 1 {
		t.Fatalf("recovery aborted = %d, want 1", rep.Aborted)
	}
}

// TestReplicaAbortOfAppliedRecordIsDivergence: an abort arriving for a
// record the follower applied cleanly means the histories forked.
func TestReplicaAbortOfAppliedRecordIsDivergence(t *testing.T) {
	p := durablePlane(t)
	if err := p.ApplyReplicated(&wal.Record{
		Seq: 1, Kind: wal.KindCreateTable, Table: "t", Hook: "h",
		Match: uint8(table.MatchExact), Bump: true,
	}); err != nil {
		t.Fatal(err)
	}
	err := p.ApplyReplicated(&wal.Record{Seq: 2, Kind: wal.KindAbort, Ref: 1})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("err = %v, want divergence", err)
	}
}

// TestReplicaPendingAbortThenOtherRecordIsDivergence: after a failed
// apply, anything other than the matching abort proves the leader kept a
// record this follower could not produce.
func TestReplicaPendingAbortThenOtherRecordIsDivergence(t *testing.T) {
	p := durablePlane(t)
	bad := &wal.Record{Seq: 1, Kind: wal.KindAddEntry, Table: "missing",
		Entry: &wal.Entry{Key: 1}, Bump: true}
	if err := p.ApplyReplicated(bad); err != nil {
		t.Fatal(err)
	}
	err := p.ApplyReplicated(&wal.Record{
		Seq: 2, Kind: wal.KindCreateTable, Table: "t", Hook: "h",
		Match: uint8(table.MatchExact), Bump: true,
	})
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("err = %v, want divergence", err)
	}
}

// TestEpochMark: the mark appends a no-op record carrying the epoch and
// replays cleanly through both shipping and recovery.
func TestEpochMark(t *testing.T) {
	p := durablePlane(t)
	p.SetLogEpoch(2)
	if err := p.AppendEpochMark(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CreateTable("t", "h", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	follower := durablePlane(t)
	shipAll(t, p, follower)

	p2, _, err := Recover(p.WAL().Dir(), core.Config{}, wal.Options{NoSync: true}, nil)
	if err != nil {
		t.Fatalf("recovery over an epoch mark: %v", err)
	}
	defer p2.WAL().Close()
	if p2.InventoryDigest() != follower.InventoryDigest() {
		t.Fatal("epoch mark perturbed replicated state")
	}
}

// TestStageProgramGateLifecycle: a gate-only canary evaluates without
// transitioning and Release detaches the shadow into the terminal
// released state.
func TestStageProgramGateLifecycle(t *testing.T) {
	p := newPlane(t)
	inc, _, err := p.LoadProgram(&isa.Program{
		Name: "inc", Insns: isa.MustAssemble("movimm r0, 1\nexit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cand, _, err := p.LoadProgram(&isa.Program{
		Name: "cand", Insns: isa.MustAssemble("movimm r0, 1\nexit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CreateTable("t", "h/gate", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("t", &table.Entry{
		Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: inc},
	}); err != nil {
		t.Fatal(err)
	}

	c, err := p.StageProgramGate("h/gate", cand, CanaryConfig{MinShadowFires: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, pending, _ := c.EvalGates(); !pending {
		t.Fatal("gates not pending before any shadow fires")
	}
	for i := 0; i < 4; i++ {
		p.K.Fire("h/gate", 1, 0, 0)
	}
	// Gate-only canaries never self-promote, no matter how much evidence.
	if st := c.State(); st != CanaryShadowing {
		t.Fatalf("state = %v, want still shadowing", st)
	}
	pass, pending, reason := c.EvalGates()
	if !pass || pending || reason != nil {
		t.Fatalf("EvalGates = (%v, %v, %v)", pass, pending, reason)
	}
	c.Release()
	if st := c.State(); st != CanaryReleased || !st.Terminal() {
		t.Fatalf("state = %v, want terminal released", st)
	}
	if p.K.DetachShadow("h/gate") != nil {
		t.Fatal("shadow still attached after release")
	}
	if _, _, reason := c.EvalGates(); reason == nil {
		t.Fatal("EvalGates on a released canary should refuse")
	}
	// Version untouched: gate-only staging is not a reconfiguration.
	if p.Version() != 0 {
		t.Fatalf("version = %d, want 0", p.Version())
	}
}

// TestStageProgramGateDivergenceTrip: divergent candidates report a gate
// failure through EvalGates instead of rolling anything back themselves.
func TestStageProgramGateDivergenceTrip(t *testing.T) {
	p := newPlane(t)
	inc, _, err := p.LoadProgram(&isa.Program{
		Name: "inc", Insns: isa.MustAssemble("movimm r0, 1\nexit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cand, _, err := p.LoadProgram(&isa.Program{
		Name: "cand", Insns: isa.MustAssemble("movimm r0, 2\nexit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CreateTable("t", "h/gate", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry("t", &table.Entry{
		Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: inc},
	}); err != nil {
		t.Fatal(err)
	}
	c, err := p.StageProgramGate("h/gate", cand, CanaryConfig{MinShadowFires: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.K.Fire("h/gate", 1, 0, 0)
	}
	pass, pending, reason := c.EvalGates()
	if pass || pending || reason == nil {
		t.Fatalf("EvalGates = (%v, %v, %v), want divergence trip", pass, pending, reason)
	}
	if st := c.State(); st != CanaryShadowing {
		t.Fatalf("gate trip transitioned state to %v", st)
	}
	c.Release()
}
