package vm

import (
	"errors"
	"testing"

	"rmtk/internal/aot/lower"
	"rmtk/internal/isa"
	"rmtk/internal/verifier"
)

// TestCompileLoweredFoldsBranches runs a facts-lowered program — a proven
// branch folded to a jump, its dead arm dropped — through the JIT closures
// (production Compile lowers without facts; rmtkgen and the soundness fuzz
// lower with them).
func TestCompileLoweredFoldsBranches(t *testing.T) {
	prog := &isa.Program{
		Name: "const-branch",
		Insns: isa.MustAssemble(`
        movimm r1, 5
        jgti   r1, 3, taken
        movimm r0, 111
        exit
taken:  movimm r0, 222
        exit`),
	}
	rep, err := verifier.Verify(prog, verifier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lower.Lower(prog, rep.Facts)
	if err != nil {
		t.Fatal(err)
	}
	if lp.FoldedBranches != 1 || lp.DeadInsns != 2 {
		t.Fatalf("folded %d branches, dropped %d insns; want 1, 2", lp.FoldedBranches, lp.DeadInsns)
	}
	env := newFakeEnv()
	j, err := compileLowered(env, prog, lp, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	got, err := j.Run(env, st, 0, 0, 0)
	if err != nil || got != 222 {
		t.Errorf("Run = (%d, %v), want (222, nil)", got, err)
	}
	if st.Steps() != 4 {
		t.Errorf("steps = %d, want 4 (the folded branch still costs its step)", st.Steps())
	}
}

// TestMatVecSumTrapChargesOneStep: the fused matmul+vecsum node charges 2
// when it completes, but a MatVec failure is the matmul instruction trapping
// — the interpreter never reaches the vecsum, so the node charges 1.
func TestMatVecSumTrapChargesOneStep(t *testing.T) {
	const src = `
        veczero v0, 4
        matmul  v1, v0, 7
        vecsum  r0, v1
        exit`
	lp, err := lower.Lower(&isa.Program{Name: "mvs", Insns: isa.MustAssemble(src)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Nodes) != 3 || lp.Nodes[1].Kind != lower.KMatVecSum {
		t.Fatalf("nodes = %+v, want veczero, matvecsum, exit", lp.Nodes)
	}
	env := newFakeEnv() // no matrix 7: MatVec fails
	for _, eng := range engines(t, env, src) {
		st := NewState()
		_, err := eng.Run(env, st, 0, 0, 0)
		if err == nil || errors.Is(err, ErrStepBudget) {
			t.Fatalf("%s: err = %v, want the MatVec failure", eng.Name(), err)
		}
		if st.Steps() != 2 {
			t.Errorf("%s: steps at trap = %d, want 2 (veczero + the trapping matmul)", eng.Name(), st.Steps())
		}
	}
	env.mats[7] = fakeMat{in: 4, out: 2, w: make([]int64, 8), b: []int64{3, 4}}
	for _, eng := range engines(t, env, src) {
		st := NewState()
		got, err := eng.Run(env, st, 0, 0, 0)
		if err != nil || got != 7 || st.Steps() != 4 {
			t.Errorf("%s: Run = (%d, %v) in %d steps, want (7, nil) in 4", eng.Name(), got, err, st.Steps())
		}
	}
}

// TestJITResolvesTailTargetPerRun: the JIT compiles tail targets ahead of
// time but, like the interpreter, asks the environment for the target on
// every run. A target that is gone traps with the environment's error on
// both engines. A target id rebound to a different program is the one place
// the two differ, on purpose: the interpreter follows the new program, the
// JIT has no closures for it and refuses with ErrNotCompiled rather than run
// the program it replaced (core never reuses a program id).
func TestJITResolvesTailTargetPerRun(t *testing.T) {
	env := newFakeEnv()
	env.tails[9] = &isa.Program{Name: "v1", Insns: isa.MustAssemble("movimm r0, 100\nexit")}
	engs := engines(t, env, "tailcall 9") // interpreter, JIT
	for _, eng := range engs {
		if got, err := eng.Run(env, NewState(), 0, 0, 0); err != nil || got != 100 {
			t.Fatalf("%s: fire = %d, %v; want 100", eng.Name(), got, err)
		}
	}
	env.tails[9] = &isa.Program{Name: "v2", Insns: isa.MustAssemble("movimm r0, 200\nexit")}
	if got, err := engs[0].Run(env, NewState(), 0, 0, 0); err != nil || got != 200 {
		t.Fatalf("interp: fire after rebinding = %d, %v; want 200", got, err)
	}
	if got, err := engs[1].Run(env, NewState(), 0, 0, 0); !errors.Is(err, ErrNotCompiled) {
		t.Fatalf("jit: fire after rebinding = %d, %v; want ErrNotCompiled", got, err)
	}
	delete(env.tails, 9)
	_, ierr := engs[0].Run(env, NewState(), 0, 0, 0)
	_, jerr := engs[1].Run(env, NewState(), 0, 0, 0)
	if jerr == nil || ierr == nil || jerr.Error() != ierr.Error() {
		t.Fatalf("fire after removal: jit %v, interp %v; want the same trap", jerr, ierr)
	}
}

// TestCompileErrorClasses: what Lower refuses reaches Compile's caller under
// the error class of the run-time check it replaced.
func TestCompileErrorClasses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		insns []isa.Instr
		want  error
	}{
		{"back-edge", isa.MustAssemble("movimm r0, 1\njmp -2\nexit"), ErrBadJump},
		{"jump past the end", isa.MustAssemble("jmp +5\nexit"), ErrBadJump},
		{"stack slot", []isa.Instr{{Op: isa.OpLdStack, Dst: 0, Imm: isa.StackWords}, {Op: isa.OpExit}}, ErrStackBounds},
		{"vector length", []isa.Instr{{Op: isa.OpVecZero, Dst: 0, Imm: isa.MaxVecLen + 1}, {Op: isa.OpExit}}, ErrVecTooLong},
		{"empty program", nil, ErrBadInstr},
	} {
		_, err := Compile(newFakeEnv(), &isa.Program{Name: tc.name, Insns: tc.insns})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Compile err = %v, want %v", tc.name, err, tc.want)
		}
		for _, other := range []error{ErrBadJump, ErrStackBounds, ErrVecTooLong, ErrBadInstr} {
			if other != tc.want && errors.Is(err, other) {
				t.Errorf("%s: Compile err = %v, also matches %v", tc.name, err, other)
			}
		}
	}
}
