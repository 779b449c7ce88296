package main

import (
	"os"
	"path/filepath"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/fault"
	"rmtk/internal/isa"
	"rmtk/internal/table"
	"rmtk/internal/wal"
)

func writeProg(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSourceDirectives(t *testing.T) {
	path := writeProg(t, "p.rmt", `;helpers 1, 5
;models 3
;vecs 2
        movimm r0, 1
        exit
`)
	prog, err := loadSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Helpers) != 2 || prog.Helpers[0] != 1 || prog.Helpers[1] != 5 {
		t.Fatalf("helpers = %v", prog.Helpers)
	}
	if len(prog.Models) != 1 || prog.Models[0] != 3 {
		t.Fatalf("models = %v", prog.Models)
	}
	if len(prog.Vecs) != 1 || prog.Vecs[0] != 2 {
		t.Fatalf("vecs = %v", prog.Vecs)
	}
	if len(prog.Insns) != 2 {
		t.Fatalf("insns = %d", len(prog.Insns))
	}
}

func TestLoadSourceBadDirective(t *testing.T) {
	path := writeProg(t, "bad.rmt", ";helpers one\nexit\n")
	if _, err := loadSource(path); err == nil {
		t.Fatal("bad directive accepted")
	}
}

func TestLoadSourceMissingFile(t *testing.T) {
	if _, err := loadSource("/nonexistent/p.rmt"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestAsmDisRoundtrip(t *testing.T) {
	path := writeProg(t, "p.rmt", "movimm r0, 7\naddimm r0, 1\nexit\n")
	if err := doAsm(path); err != nil {
		t.Fatal(err)
	}
	bin := path[:len(path)-len(".rmt")] + ".bin"
	if _, err := os.Stat(bin); err != nil {
		t.Fatalf("binary missing: %v", err)
	}
	if err := doDis(bin); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyAndRun(t *testing.T) {
	path := writeProg(t, "p.rmt", "mov r0, r1\nmulimm r0, 2\nexit\n")
	if err := doVerify([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := doRun(path, []string{"21"}); err != nil {
		t.Fatal(err)
	}
	if err := doRun(path, []string{"not-a-number"}); err == nil {
		t.Fatal("bad register value accepted")
	}
}

func TestVerifyRejectsBadProgram(t *testing.T) {
	path := writeProg(t, "bad.rmt", "mov r0, r9\nexit\n")
	if err := doVerify([]string{path}); err == nil {
		t.Fatal("uninitialized read admitted")
	}
}

// TestVerifyReport: -report over explicit files renders the three-stage
// report and fails the command when a program is rejected; the demo corpus
// report succeeds.
func TestVerifyReport(t *testing.T) {
	good := writeProg(t, "good.rmt", "movimm r0, 1\nexit\n")
	if err := doVerify([]string{"-report", good}); err != nil {
		t.Fatal(err)
	}
	if err := doVerify([]string{"-json", good}); err != nil {
		t.Fatal(err)
	}
	bad := writeProg(t, "bad.rmt", "mov r0, r9\nexit\n")
	if err := doVerify([]string{"-report", good, bad}); err == nil {
		t.Fatal("report with rejected program did not fail")
	}
	if err := doVerify([]string{"-report", "datapaths"}); err != nil {
		t.Fatal(err)
	}
	if err := doVerify(nil); err == nil {
		t.Fatal("verify with no arguments succeeded")
	}
}

// walDir builds a small durable state directory: a table, entries on both
// sides of a checkpoint, and a transaction — enough for every durability
// subcommand to have something to print.
func walDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	p, err := ctrl.Open(core.NewKernel(core.Config{}), dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CreateTable("demo_tab", "hook/demo", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	add := func(key uint64, param int64) {
		t.Helper()
		e := &table.Entry{Key: key, Action: table.Action{Kind: table.ActionParam, Param: param}}
		if err := p.AddEntry("demo_tab", e); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 10)
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	txn := p.Begin()
	txn.AddEntry("demo_tab", &table.Entry{Key: 2, Action: table.Action{Kind: table.ActionParam, Param: 20}})
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	add(3, 30)
	if err := p.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDurabilityCommands(t *testing.T) {
	dir := walDir(t)
	if err := doLogInspect(dir); err != nil {
		t.Fatal(err)
	}
	if err := doRecover(dir); err != nil {
		t.Fatal(err)
	}
	if err := doSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	// A torn final write must stay inspectable and recoverable: log-inspect
	// reports the damaged suffix, recover discards it.
	if _, err := fault.FSTornTail(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := doLogInspect(dir); err != nil {
		t.Fatal(err)
	}
	if err := doRecover(dir); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverMissingDir(t *testing.T) {
	if err := doRecover(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("recovery of a missing directory succeeded")
	}
}

func TestRunWithDeclaredModelStub(t *testing.T) {
	path := writeProg(t, "m.rmt", `;models 1
        veczero v0, 4
        mlinfer r0, v0, 1
        exit
`)
	if err := doRun(path, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTenantStatusCommand: tenant-status recovers a plane offline and renders
// each tenant's contract; a tenant-free state dir reports the default tenant.
func TestTenantStatusCommand(t *testing.T) {
	dir := t.TempDir()
	p, err := ctrl.Open(core.NewKernel(core.Config{}), dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	err = p.RegisterTenant("acme", core.TenantQuota{RatePerSec: 100, Burst: 5, Weight: 2, MaxTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CreateTable("acme:flows", "acme:hook/rx", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	if err := p.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	if err := doTenantStatus(dir); err != nil {
		t.Fatal(err)
	}
	if err := doTenantStatus(walDir(t)); err != nil {
		t.Fatal(err)
	}
	if err := doTenantStatus(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("tenant-status of a missing directory succeeded")
	}
}

func TestEngineStatusCommand(t *testing.T) {
	dir := t.TempDir()
	p, err := ctrl.Open(core.NewKernel(core.Config{Quarantine: core.QuarantineConfig{CooldownFires: 1 << 20}}), dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.LoadProgram(&isa.Program{
		Name: "eng_p", Hook: "h/eng",
		Insns: isa.MustAssemble("movimm r0, 3\nexit"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CreateTable("eng_t", "h/eng", table.MatchExact); err != nil {
		t.Fatal(err)
	}
	progID := p.K.EngineStatus()[0].ID
	if err := p.AddEntry("eng_t", &table.Entry{
		Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: progID},
	}); err != nil {
		t.Fatal(err)
	}
	// One injected engine panic with DemoteAfter=1 demotes jit→interp and
	// logs an incident for the offline view to find.
	p.K.AttachSentinel(core.SentinelConfig{SampleEvery: 1 << 20, DemoteAfter: 1})
	if err := p.EnableIncidentLog(); err != nil {
		t.Fatal(err)
	}
	p.K.SetFaultInjector(fault.NewInjector(1, fault.Rule{
		Target: "h/eng", Kind: fault.KindEnginePanic, Count: 1,
	}))
	if res := p.K.Fire("h/eng", 1, 0, 0); !res.Trapped {
		t.Fatalf("injected panic fire: %+v", res)
	}
	if err := p.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	if err := doEngineStatus(dir); err != nil {
		t.Fatal(err)
	}
	// A state dir with no incidents or programs still reports cleanly.
	if err := doEngineStatus(walDir(t)); err != nil {
		t.Fatal(err)
	}
	if err := doEngineStatus(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("engine-status of a missing directory succeeded")
	}
}
