package verifier

import (
	"strings"
	"testing"

	"rmtk/internal/isa"
)

// admit verifies prog under cfg and attaches the admission artifacts the way
// the kernel does, returning the entry a corpus snapshot would carry.
func admit(t *testing.T, prog *isa.Program, cfg Config) CorpusEntry {
	t.Helper()
	rep, err := Verify(prog, cfg)
	if err != nil {
		t.Fatalf("Verify(%s): %v", prog.Name, err)
	}
	prog.Proofs = rep.Proofs
	prog.HelperContracts = rep.HelperContracts
	prog.StaticSteps = rep.MaxSteps
	prog.Pure = rep.Pure
	prog.Facts = rep.Facts
	return CorpusEntry{ID: 1, Prog: prog, Cfg: cfg}
}

func findCodes(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Code
	}
	return out
}

func wantFinding(t *testing.T, fs []Finding, level Level, code, detail string) {
	t.Helper()
	for _, f := range fs {
		if f.Code != code {
			continue
		}
		if f.Level != level {
			t.Fatalf("finding %s has level %s, want %s", code, f.Level, level)
		}
		if !strings.Contains(f.Detail, detail) {
			t.Fatalf("finding %s detail %q does not contain %q", code, f.Detail, detail)
		}
		return
	}
	t.Fatalf("no %s finding; got %v", code, findCodes(fs))
}

func TestAnalyzeEntryCleanProgram(t *testing.T) {
	prog := &isa.Program{
		Name:  "clean",
		Insns: isa.MustAssemble("movimm r0, 7\nexit"),
	}
	e := admit(t, prog, Config{})
	rep, fs := AnalyzeEntry(e)
	if rep == nil {
		t.Fatal("AnalyzeEntry returned nil report for verifiable program")
	}
	if len(fs) != 0 {
		t.Fatalf("clean program produced findings: %v", fs)
	}
}

func TestAnalyzeEntryVerifyFailure(t *testing.T) {
	// An admitted program whose helper was since unregistered: verification
	// no longer succeeds against today's registries.
	cfg := Config{Helpers: map[int64]HelperSpec{5: {Name: "rmt_hist_len", Cost: 1}}}
	prog := &isa.Program{
		Name:    "orphaned",
		Helpers: []int64{5},
		Insns:   isa.MustAssemble("call 5\nexit"),
	}
	e := admit(t, prog, cfg)
	e.Cfg = Config{} // helper registry lost the id
	rep, fs := AnalyzeEntry(e)
	if rep != nil {
		t.Fatal("expected nil report on verification failure")
	}
	wantFinding(t, fs, LevelError, CodeVerifyFailed, "")
}

func TestAnalyzeEntryCertificateIntegrity(t *testing.T) {
	mk := func() *isa.Program {
		return &isa.Program{Name: "p", Insns: isa.MustAssemble("movimm r0, 1\nmovimm r1, 2\nexit")}
	}

	// Missing cost certificate.
	e := admit(t, mk(), Config{})
	e.Prog.StaticSteps = 0
	_, fs := AnalyzeEntry(e)
	wantFinding(t, fs, LevelError, CodeNoCostCert, "no static-cost certificate")

	// Drifted cost certificate.
	e = admit(t, mk(), Config{})
	e.Prog.StaticSteps += 5
	_, fs = AnalyzeEntry(e)
	wantFinding(t, fs, LevelError, CodeCostDrift, "re-verification proves")

	// Proof masks absent entirely.
	e = admit(t, mk(), Config{})
	e.Prog.Proofs = nil
	_, fs = AnalyzeEntry(e)
	wantFinding(t, fs, LevelError, CodeProofMissing, "0 proof masks for 3 instructions")

	// A tampered mask claiming a proof the verifier does not issue.
	e = admit(t, mk(), Config{})
	e.Prog.Proofs = append([]isa.ProofMask(nil), e.Prog.Proofs...)
	e.Prog.Proofs[0] |= isa.ProofDivNonZero
	_, fs = AnalyzeEntry(e)
	wantFinding(t, fs, LevelError, CodeProofDrift, "pc 0")

	// Purity certificate drift.
	e = admit(t, mk(), Config{})
	e.Prog.Pure = !e.Prog.Pure
	_, fs = AnalyzeEntry(e)
	wantFinding(t, fs, LevelError, CodePurityDrift, "purity certificate")
}

func TestAnalyzeEntryUnprovenDivision(t *testing.T) {
	// R2 is a fire argument with unknown range: the divisor cannot be proven
	// nonzero and the site is a latent runtime trap.
	prog := &isa.Program{
		Name:  "divider",
		Insns: isa.MustAssemble("mov r4, r1\ndiv r4, r2\nmov r0, r4\nexit"),
	}
	e := admit(t, prog, Config{})
	_, fs := AnalyzeEntry(e)
	wantFinding(t, fs, LevelWarn, CodeUnprovenDiv, "divisor not provably nonzero")

	// A constant divisor is proven and produces no finding.
	proven := &isa.Program{
		Name:  "halver",
		Insns: isa.MustAssemble("movimm r4, 2\nmov r5, r1\ndiv r5, r4\nmov r0, r5\nexit"),
	}
	_, fs = AnalyzeEntry(admit(t, proven, Config{}))
	for _, f := range fs {
		if f.Code == CodeUnprovenDiv {
			t.Fatalf("proven division flagged: %v", f)
		}
	}
}

func TestAnalyzeEntryHelperContracts(t *testing.T) {
	contract := []isa.Interval{isa.Range(-1<<20, 1<<20)}
	cfg := Config{Helpers: map[int64]HelperSpec{
		4: {Name: "rmt_clamp_delta", Cost: 1, Args: contract},
		5: {Name: "rmt_hist_len", Cost: 1},
	}}

	// R1 is a fire argument: the contract on helper 4 cannot be discharged
	// statically, so the VM enforces it per call.
	runtimeEnforced := &isa.Program{
		Name:    "runtime-contract",
		Helpers: []int64{4},
		Insns:   isa.MustAssemble("call 4\nexit"),
	}
	_, fs := AnalyzeEntry(admit(t, runtimeEnforced, cfg))
	wantFinding(t, fs, LevelWarn, CodeContractRuntime, "argument contract not statically discharged")

	// A provably in-range argument discharges the contract; only the
	// uncontracted helper 5 is reported, as info.
	proven := &isa.Program{
		Name:    "proven-contract",
		Helpers: []int64{4, 5},
		Insns:   isa.MustAssemble("movimm r1, 100\ncall 4\ncall 5\nexit"),
	}
	_, fs = AnalyzeEntry(admit(t, proven, cfg))
	for _, f := range fs {
		if f.Code == CodeContractRuntime {
			t.Fatalf("discharged contract flagged: %v", f)
		}
	}
	wantFinding(t, fs, LevelInfo, CodeContractMissing, "no declared argument contract")
}

// TestAnalyzeEntryFactsDrift: the lowering folds branches on the attached
// facts, so facts that are missing or disagree with a fresh verification are
// integrity errors like drifted proofs.
func TestAnalyzeEntryFactsDrift(t *testing.T) {
	// R4 is the constant 3: the jgti 5 edge is provably never taken.
	prog := &isa.Program{
		Name: "deadarm",
		Insns: isa.MustAssemble(`
movimm r4, 3
jgti r4, 5, +2
movimm r0, 1
exit
movimm r0, 2
exit
`),
	}
	e := admit(t, prog, Config{})
	_, fs := AnalyzeEntry(e)
	for _, f := range fs {
		if f.Level > LevelInfo {
			t.Fatalf("admitted deadarm has findings %v", fs)
		}
	}
	if got := e.Prog.Facts.Branches[1]; got != isa.BranchNeverTaken {
		t.Fatalf("branch at pc 1 = %d, want never taken", got)
	}

	stale := *e.Prog.Facts
	stale.Branches = append([]isa.BranchDecision(nil), stale.Branches...)
	stale.Branches[1] = isa.BranchAlwaysTaken
	e.Prog.Facts = &stale
	_, fs = AnalyzeEntry(e)
	wantFinding(t, fs, LevelError, CodeFactsDrift, "pc 1: attached facts live=true branch=1, re-verification proves live=true branch=2")

	e.Prog.Facts = nil
	_, fs = AnalyzeEntry(e)
	wantFinding(t, fs, LevelError, CodeFactsDrift, "no interval facts for its 6 instructions")
}

func TestAnalyzeCorpusAndMaxLevel(t *testing.T) {
	clean := admit(t, &isa.Program{Name: "a", Insns: isa.MustAssemble("movimm r0, 1\nexit")}, Config{})
	broken := admit(t, &isa.Program{Name: "b", Insns: isa.MustAssemble("movimm r0, 1\nexit")}, Config{})
	broken.Prog.StaticSteps = 0

	fs := AnalyzeCorpus([]CorpusEntry{clean, broken})
	if len(fs) != 1 || fs[0].Program != "b" || fs[0].Code != CodeNoCostCert || fs[0].Level != LevelError {
		t.Fatalf("corpus findings = %v", fs)
	}
	if s := fs[0].String(); !strings.Contains(s, "ERROR b [no-cost-cert]") {
		t.Fatalf("Finding.String() = %q", s)
	}
}
