package rmtk_test

import (
	"fmt"
	"testing"

	"rmtk"
)

// TestFacadeQuickstart exercises the public API end to end: build a kernel,
// admit a program through the control plane, wire it to a table, fire the
// hook.
func TestFacadeQuickstart(t *testing.T) {
	k := rmtk.New(rmtk.Config{Mode: rmtk.ModeJIT})
	plane := rmtk.NewControlPlane(k)

	insns, err := rmtk.Assemble(`
        mov    r0, r2
        mulimm r0, 2
        exit`)
	if err != nil {
		t.Fatal(err)
	}
	progID, report, err := plane.LoadProgram(&rmtk.Program{
		Name:  "double",
		Hook:  "test/hook",
		Insns: insns,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.MaxSteps != 3 {
		t.Fatalf("steps = %d", report.MaxSteps)
	}

	tb := rmtk.NewTable("tab", "test/hook", rmtk.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(&rmtk.Entry{
		Key:    1,
		Action: rmtk.Action{Kind: rmtk.ActionProgram, ProgID: progID},
	}); err != nil {
		t.Fatal(err)
	}
	res := k.Fire("test/hook", 1, 21, 0)
	if res.Verdict != 42 {
		t.Fatalf("verdict = %d", res.Verdict)
	}
}

func TestFacadePrivacy(t *testing.T) {
	acct, err := rmtk.NewPrivacyAccountant(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := rmtk.New(rmtk.Config{Privacy: acct, QueryEpsilon: 0.5})
	k.Ctx().Store(1, 0, 7)
	insns, _ := rmtk.Assemble("movimm r1, 0\nmovimm r2, 1\ncall 2\nexit")
	if _, _, err := rmtk.NewControlPlane(k).LoadProgram(&rmtk.Program{
		Name:    "agg",
		Insns:   insns,
		Helpers: []int64{rmtk.HelperCtxSum},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := k.RunProgramByName("agg", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The program's query spent half the budget: the other half pays one
	// more query of 0.5 and nothing past it.
	if _, err := acct.Query(0, 1, 0.5); err != nil {
		t.Fatalf("second half of the budget refused: %v", err)
	}
	if _, err := acct.Query(0, 1, 1e-6); err == nil {
		t.Fatal("budget not exhausted after two queries of 0.5")
	}
}

// Example demonstrates the smallest useful RMT program.
func Example() {
	k := rmtk.New(rmtk.Config{})
	plane := rmtk.NewControlPlane(k)
	insns, _ := rmtk.Assemble("movimm r0, 42\nexit")
	_, _, err := plane.LoadProgram(&rmtk.Program{Name: "answer", Insns: insns})
	if err != nil {
		fmt.Println(err)
		return
	}
	verdict, _, _ := k.RunProgramByName("answer", 0, 0, 0)
	fmt.Println(verdict)
	// Output: 42
}
