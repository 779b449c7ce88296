package ctrl

import (
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/fault"
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

// incidentRig builds a durable plane with one sentineled program on hook
// "h/inc", wired so a single injected engine panic demotes JIT→interp and
// logs a wal.KindIncident record.
func incidentRig(t *testing.T) (*Plane, string) {
	t.Helper()
	p := durablePlane(t)
	if _, _, err := p.LoadProgram(&isa.Program{
		Name: "inc_p", Hook: "h/inc",
		Insns: isa.MustAssemble("movimm r0, 8\nexit"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CreateTable("inc_t", "h/inc", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	progID := p.K.EngineStatus()[0].ID
	if err := p.AddEntry("inc_t", &table.Entry{
		Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: progID},
	}); err != nil {
		t.Fatal(err)
	}
	p.K.AttachSentinel(core.SentinelConfig{SampleEvery: 1 << 20, DemoteAfter: 1})
	if err := p.EnableIncidentLog(); err != nil {
		t.Fatal(err)
	}
	p.K.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "h/inc", Kind: fault.KindEnginePanic, Count: 1,
	}))
	res := p.K.Fire("h/inc", 1, 0, 0)
	if !res.Trapped {
		t.Fatalf("injected panic fire: %+v", res)
	}
	q := p.K.EngineQuarantines()
	if len(q) != 1 || q[0].Tier != core.TierInterp {
		t.Fatalf("quarantines = %v, want one interp demotion", q)
	}
	return p, q[0].Hash
}

// TestIncidentLoggedAndRecovered: a sentinel demotion is appended to the WAL
// through the plane's write-ahead path and re-applies the quarantine on
// recovery — before any sentinel exists, and adopted when one attaches.
func TestIncidentLoggedAndRecovered(t *testing.T) {
	p, hash := incidentRig(t)
	dir := p.WAL().Dir()

	sc, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var inc *wal.Record
	for _, rec := range sc.Records {
		if rec.Kind == wal.KindIncident {
			inc = rec
		}
	}
	if inc == nil {
		t.Fatal("no incident record in the log")
	}
	if inc.Incident.Hash != hash || inc.Incident.From != "jit" || inc.Incident.To != "interp" || inc.Incident.Cause != core.CausePanic {
		t.Fatalf("incident record = %+v", inc.Incident)
	}
	if inc.Incident.Program != "inc_p" {
		t.Fatalf("incident program = %q", inc.Incident.Program)
	}

	if err := p.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	p2, _, err := Recover(dir, core.Config{}, wal.Options{NoSync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p2.WAL().Close() })
	q := p2.K.EngineQuarantines()
	if len(q) != 1 || q[0].Hash != hash || q[0].Tier != core.TierInterp {
		t.Fatalf("recovered quarantines = %v", q)
	}
	// Attaching a sentinel adopts the stashed quarantine: the reinstalled
	// (byte-identical) program resolves to the demoted tier, not jit.
	p2.K.AttachSentinel(core.SentinelConfig{})
	for _, st := range p2.K.EngineStatus() {
		if st.Program == "inc_p" && st.Tier != core.TierInterp {
			t.Fatalf("recovered tier = %s, want interp", st.Tier)
		}
	}
}

// TestIncidentCheckpointed: a checkpoint taken after the demotion carries the
// quarantine, so recovery restores it even when the incident record itself
// was compacted out of the log.
func TestIncidentCheckpointed(t *testing.T) {
	p, hash := incidentRig(t)
	dir := p.WAL().Dir()
	seq, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WAL().Compact(seq); err != nil {
		t.Fatal(err)
	}
	if err := p.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	p2, st, err := Recover(dir, core.Config{}, wal.Options{NoSync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p2.WAL().Close() })
	if st.CheckpointSeq != seq {
		t.Fatalf("recovered from checkpoint %d, want %d", st.CheckpointSeq, seq)
	}
	q := p2.K.EngineQuarantines()
	if len(q) != 1 || q[0].Hash != hash || q[0].Tier != core.TierInterp {
		t.Fatalf("checkpoint-restored quarantines = %v", q)
	}
}

// TestRePromotionOutlivesCheckpoint: a quarantine restored at recovery that
// the program then probes its way out of is over — the next checkpoint must
// not carry it, so a second recovery brings the program back at its max tier.
func TestRePromotionOutlivesCheckpoint(t *testing.T) {
	p, hash := incidentRig(t)
	dir := p.WAL().Dir()
	if err := p.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	fast := core.Config{Quarantine: core.QuarantineConfig{CooldownFires: 1, ProbeSuccesses: 1}}
	p2, _, err := Recover(dir, fast, wal.Options{NoSync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2.K.AttachSentinel(core.SentinelConfig{SampleEvery: 1 << 20})
	// The first fire probes jit (cooldown 1) and its one clean probe
	// re-promotes.
	if res := p2.K.Fire("h/inc", 1, 0, 0); res.Trapped || res.Verdict != 8 {
		t.Fatalf("probe fire: %+v", res)
	}
	if st := p2.K.EngineStatus()[0]; st.Hash != hash || st.Tier != core.TierJIT {
		t.Fatalf("after the probe: %+v, want %s back at jit", st, hash)
	}
	if q := p2.K.EngineQuarantines(); len(q) != 0 {
		t.Fatalf("quarantines after re-promotion = %v", q)
	}
	if _, err := p2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p2.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	p3, _, err := Recover(dir, core.Config{}, wal.Options{NoSync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p3.WAL().Close() })
	p3.K.AttachSentinel(core.SentinelConfig{})
	if q := p3.K.EngineQuarantines(); len(q) != 0 {
		t.Fatalf("quarantines after a second recovery = %v", q)
	}
	if st := p3.K.EngineStatus()[0]; st.Tier != core.TierJIT {
		t.Fatalf("recovered tier = %s, want jit", st.Tier)
	}
}
