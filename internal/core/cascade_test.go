package core

import (
	"errors"
	"testing"

	"rmtk/internal/isa"
	"rmtk/internal/verifier"
)

// TestModelCascadeViaTailCall exercises §3.2's "models can also be cascaded
// using TAIL_CALL": a cheap first-stage filter (a threshold on the staged
// feature vector) exits early for easy cases and tail-calls into an
// expensive second-stage model program for hard ones. The verifier accounts
// the worst-case ML cost across the whole chain.
func TestModelCascadeViaTailCall(t *testing.T) {
	k := NewKernel(Config{})
	expensive := k.RegisterModel(&FuncModel{
		Fn: func(x []int64) int64 {
			var s int64
			for _, v := range x {
				s += v
			}
			return s
		},
		Feats: 4, Ops: 1000, Size: 4096,
	})
	vecID := k.RegisterVec(make([]int64, 4))

	// Stage 2: the expensive model.
	stage2 := &isa.Program{
		Name: "cascade_stage2",
		Insns: isa.MustAssemble(
			"vecld v0, " + itoa(vecID) + "\nmlinfer r0, v0, " + itoa(expensive) + "\nexit"),
		Models: []int64{expensive},
		Vecs:   []int64{vecID},
	}
	stage2ID := install(t, k, stage2)

	// Stage 1: cheap filter — easy cases (first feature <= 10) exit with 0;
	// hard cases cascade.
	stage1 := &isa.Program{
		Name: "cascade_stage1",
		Insns: isa.MustAssemble(`
        vecld     v0, ` + itoa(vecID) + `
        scalarval r4, v0, 0
        jgti      r4, 10, hard
        movimm    r0, 0
        exit
hard:   tailcall  ` + itoa(stage2ID)),
		Vecs:  []int64{vecID},
		Tails: []int64{stage2ID},
	}
	id, report, err := k.InstallProgram(stage1)
	if err != nil {
		t.Fatal(err)
	}
	_ = id
	// The chain's worst case includes the expensive model.
	if report.MLOps < 1000 {
		t.Fatalf("chain MLOps = %d, expensive stage not accounted", report.MLOps)
	}
	if report.ModelBytes < 4096 {
		t.Fatalf("chain ModelBytes = %d", report.ModelBytes)
	}

	// Easy case stays in stage 1.
	if err := k.SetVec(vecID, []int64{5, 100, 100, 100}); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := k.RunProgramByName("cascade_stage1", 0, 0, 0); got != 0 {
		t.Fatalf("easy case got %d", got)
	}
	// Hard case cascades into the expensive model.
	if err := k.SetVec(vecID, []int64{20, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := k.RunProgramByName("cascade_stage1", 0, 0, 0); got != 26 {
		t.Fatalf("hard case got %d", got)
	}
}

// TestModelOpsBudgetAdmission: a program that infers with a registered model
// is charged the model's declared cost at admission, so a kernel ops budget
// below it rejects the program (the paper's FLOP admission check).
func TestModelOpsBudgetAdmission(t *testing.T) {
	model := &FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 16, Ops: 128, Size: 64}
	ops, _ := model.Cost()
	build := func(opsBudget int64) error {
		k := NewKernel(Config{OpsBudget: opsBudget})
		id := k.RegisterModel(model)
		vecID := k.RegisterVec(make([]int64, model.NumFeatures()))
		prog := &isa.Program{
			Name:   "model_action",
			Insns:  isa.MustAssemble("vecld v0, " + itoa(vecID) + "\nmlinfer r0, v0, " + itoa(id) + "\nexit"),
			Models: []int64{id},
			Vecs:   []int64{vecID},
		}
		_, _, err := k.InstallProgram(prog)
		return err
	}
	if err := build(0); err != nil {
		t.Fatalf("unbudgeted admission failed: %v", err)
	}
	if err := build(ops - 1); err == nil {
		t.Fatal("over-budget model admitted")
	} else if !errors.Is(err, verifier.ErrOpsBudget) {
		t.Fatalf("err = %v", err)
	}
}
