package vm

import (
	"errors"
	"testing"

	"rmtk/internal/aot/lower"
	"rmtk/internal/isa"
	"rmtk/internal/verifier"
)

// deadarm keeps a branch the verifier decides: R4 is the constant 3, so the
// jgti 5 edge is never taken and the last two instructions are dead.
const deadarm = `
        movimm r4, 3
        jgti   r4, 5, +2
        movimm r0, 1
        exit
        movimm r0, 2
        exit`

// admitted verifies prog and attaches its artifacts the way the kernel's
// admission does.
func admitted(t *testing.T, prog *isa.Program, cfg verifier.Config) *isa.Program {
	t.Helper()
	rep, err := verifier.Verify(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog = prog.Clone()
	prog.Proofs = rep.Proofs
	prog.HelperContracts = rep.HelperContracts
	prog.StaticSteps = rep.MaxSteps
	prog.Facts = rep.Facts
	return prog
}

// TestCompileLoweredFoldsBranches: Compile lowers with the facts the
// program carries. Without them deadarm compiles to 6 nodes; with them the
// decided branch becomes a cost-only nop and the dead arm is dropped, 4
// nodes, for the same result, steps and registers.
func TestCompileLoweredFoldsBranches(t *testing.T) {
	bare := &isa.Program{Name: "deadarm", Insns: isa.MustAssemble(deadarm)}
	withFacts := admitted(t, bare, verifier.Config{})
	type run struct {
		nodes int
		r0    int64
		steps int64
		regs  [isa.NumRegs]int64
	}
	var got [2]run
	for i, p := range []*isa.Program{bare, withFacts} {
		env := newFakeEnv()
		j, err := Compile(env, p)
		if err != nil {
			t.Fatal(err)
		}
		st := NewState()
		r0, err := j.Run(env, st, 7, 8, 9)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = run{nodes: len(j.code), r0: r0, steps: st.Steps(), regs: st.Regs}
	}
	if got[0].nodes != 6 || got[1].nodes != 4 {
		t.Errorf("nodes without/with facts = %d/%d, want 6/4", got[0].nodes, got[1].nodes)
	}
	if got[0].r0 != 1 || got[0].steps != 4 {
		t.Errorf("deadarm = (%d, %d steps), want (1, 4)", got[0].r0, got[0].steps)
	}
	if got[0].r0 != got[1].r0 || got[0].steps != got[1].steps || got[0].regs != got[1].regs {
		t.Errorf("folding changed the run: without facts %+v, with %+v", got[0], got[1])
	}
}

// TestCompileFoldsTailTarget: a tail target is itself an admitted program
// and carries its own facts. A root with no dead edge tail-calls deadarm;
// the target's compiled nodes shrink, and the chain runs as the interpreter
// runs it.
func TestCompileFoldsTailTarget(t *testing.T) {
	cfg := verifier.Config{Tails: map[int64]*isa.Program{}}
	root := &isa.Program{Name: "root", Insns: isa.MustAssemble("addimm r1, 1\ntailcall 4"), Tails: []int64{4}}
	for _, target := range []*isa.Program{
		{Name: "deadarm", Insns: isa.MustAssemble(deadarm)},
		admitted(t, &isa.Program{Name: "deadarm", Insns: isa.MustAssemble(deadarm)}, cfg),
	} {
		env := newFakeEnv()
		env.tails[4] = target
		cfg.Tails[4] = target
		r := admitted(t, root, cfg)
		j, err := Compile(env, r)
		if err != nil {
			t.Fatal(err)
		}
		want := 6
		if target.Facts != nil {
			want = 4
		}
		if len(j.code) != 2 || len(j.tails) != 1 || len(j.tails[0].jit.code) != want {
			t.Errorf("target facts=%v: root %d nodes, target %d nodes; want 2, %d",
				target.Facts != nil, len(j.code), len(j.tails[0].jit.code), want)
		}
		ip, err := NewInterpreter(r)
		if err != nil {
			t.Fatal(err)
		}
		sj, si := NewState(), NewState()
		jr, jerr := j.Run(env, sj, 7, 0, 0)
		ir, ierr := ip.Run(env, si, 7, 0, 0)
		if jerr != nil || ierr != nil || jr != 1 || ir != 1 || sj.Steps() != 6 || si.Steps() != 6 || sj.Regs != si.Regs {
			t.Errorf("target facts=%v: jit (%d, %d steps, %v), interp (%d, %d steps, %v); want r0 1 in 6 steps on both",
				target.Facts != nil, jr, sj.Steps(), jerr, ir, si.Steps(), ierr)
		}
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
	lp, err := lower.Lower(&isa.Program{Name: "mvs", Insns: isa.MustAssemble(src)})
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
