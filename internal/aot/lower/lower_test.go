package lower_test

import (
	"errors"
	"testing"

	"rmtk/internal/aot/lower"
	"rmtk/internal/isa"
	"rmtk/internal/verifier"
	"rmtk/internal/vm"
)

// stubEnv is a minimal vm.Env for running lowered shapes through the JIT:
// MatVec copies the input through (identity matrix of the input's length),
// tail is the one tail-call target, everything else is inert. The fuzz
// differential (internal/vm FuzzVerifierSoundness) covers full environment
// semantics; these tests pin the lowering structure and its step accounting.
type stubEnv struct{ tail *isa.Program }

func (stubEnv) CtxLoad(key, field int64) int64     { return 0 }
func (stubEnv) CtxStore(key, field, val int64)     {}
func (stubEnv) CtxHistPush(key, val int64)         {}
func (stubEnv) CtxHist(key int64, dst []int64) int { return 0 }
func (stubEnv) Match(table, key int64) int64       { return 0 }
func (stubEnv) Call(helper int64, args *[5]int64) (int64, error) {
	return 0, nil
}
func (stubEnv) MatVec(id int64, in, out []int64) (int, error) {
	copy(out, in)
	return len(in), nil
}
func (stubEnv) Infer(model int64, x []int64) (int64, error) { return 0, nil }
func (stubEnv) VecLoad(id int64, dst []int64) (int, error)  { return 0, nil }
func (stubEnv) VecStore(id int64, src []int64) error        { return nil }
func (e stubEnv) TailProgram(id int64) (*isa.Program, error) {
	if e.tail == nil {
		return nil, errors.New("no tail program")
	}
	return e.tail, nil
}

// runBoth compiles prog (vm.Compile lowers it with the facts it carries) and
// runs it on the JIT and on the interpreter, returning each engine's (r0, steps, err).
// The interpreter is the reference the fused nodes must charge like.
func runBoth(t *testing.T, env stubEnv, prog *isa.Program, r1, r2, r3 int64) (jit, interp [2]int64, jerr, ierr error) {
	t.Helper()
	j, err := vm.Compile(env, prog)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := vm.NewInterpreter(prog)
	if err != nil {
		t.Fatal(err)
	}
	st := vm.NewState()
	jit[0], jerr = j.Run(env, st, r1, r2, r3)
	jit[1] = st.Steps()
	interp[0], ierr = ip.Run(env, st, r1, r2, r3)
	interp[1] = st.Steps()
	return jit, interp, jerr, ierr
}

// shardscaleProg is the hot-path benchmark shape: a fully fusable
// veczero+vecset* run followed by matmul+vecsum.
func shardscaleProg(t *testing.T) *isa.Program {
	t.Helper()
	return &isa.Program{
		Name: "shardscale_pure",
		Insns: isa.MustAssemble(`
        veczero v0, 4
        vecset  v0, 0, r1
        vecset  v0, 1, r2
        vecset  v0, 2, r3
        vecset  v0, 3, r1
        matmul  v1, v0, 7
        vecsum  r0, v1
        exit`),
		Mats: []int64{7},
	}
}

func TestLowerFusesSuperinstructions(t *testing.T) {
	lp, err := lower.Lower(shardscaleProg(t))
	if err != nil {
		t.Fatal(err)
	}
	if lp.FusedPairs != 2 {
		t.Errorf("FusedPairs = %d, want 2", lp.FusedPairs)
	}
	kinds := make([]lower.Kind, len(lp.Nodes))
	for i, nd := range lp.Nodes {
		kinds[i] = nd.Kind
	}
	want := []lower.Kind{lower.KVecInit, lower.KMatVecSum, lower.KExit}
	if len(kinds) != len(want) {
		t.Fatalf("lowered to %d nodes (%v), want %v", len(kinds), kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("node kinds = %v, want %v", kinds, want)
		}
	}
	// The fused nodes must still charge the original instruction count:
	// veczero+4 vecsets = 5 steps, matmul+vecsum = 2 steps.
	if lp.Nodes[0].Cost != 5 || lp.Nodes[1].Cost != 2 {
		t.Errorf("fused costs = %d, %d; want 5, 2", lp.Nodes[0].Cost, lp.Nodes[1].Cost)
	}
}

func TestJITFusedMatchesHandComputation(t *testing.T) {
	// v0 = [2, 3, 4, 2]; identity MatVec; sum = 11. Steps are charged per
	// original instruction: 8 including the exit, though only 3 nodes run.
	jit, interp, jerr, ierr := runBoth(t, stubEnv{}, shardscaleProg(t), 2, 3, 4)
	if jerr != nil || ierr != nil {
		t.Fatal(jerr, ierr)
	}
	if want := [2]int64{11, 8}; jit != want || interp != want {
		t.Errorf("(r0, steps): jit %v, interp %v; want %v (fusion must not change step accounting)", jit, interp, want)
	}
}

func TestLowerFusesMulAddImm(t *testing.T) {
	prog := &isa.Program{
		Name: "muladd",
		Insns: isa.MustAssemble(`
        mov    r2, r1
        mulimm r2, 3
        addimm r2, 4
        mov    r0, r2
        exit`),
	}
	lp, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if lp.FusedPairs != 1 {
		t.Fatalf("FusedPairs = %d, want 1", lp.FusedPairs)
	}
	var fused *lower.Node
	for i := range lp.Nodes {
		if lp.Nodes[i].Kind == lower.KMulAddImm {
			fused = &lp.Nodes[i]
		}
	}
	if fused == nil {
		t.Fatalf("no KMulAddImm node in %+v", lp.Nodes)
	}
	if fused.Mul != 3 || fused.Add != 4 || fused.Cost != 2 {
		t.Errorf("fused node = %+v, want Mul 3, Add 4, Cost 2", fused)
	}
	jit, interp, jerr, ierr := runBoth(t, stubEnv{}, prog, 5, 0, 0)
	if jerr != nil || ierr != nil {
		t.Fatal(jerr, ierr)
	}
	if want := [2]int64{19, 5}; jit != want || interp != want {
		t.Errorf("(r0, steps): jit %v, interp %v; want %v", jit, interp, want)
	}
}

func TestLowerRefusesFusionAcrossJumpTarget(t *testing.T) {
	// The jump lands on the first vecset, so fusing it into the preceding
	// veczero would let control enter the middle of a superinstruction.
	prog := &isa.Program{
		Name: "jump-into-run",
		Insns: isa.MustAssemble(`
        jgti    r1, 5, target
        veczero v0, 2
target: vecset  v0, 0, r2
        exit`),
	}
	lp, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if lp.FusedPairs != 0 {
		t.Errorf("FusedPairs = %d, want 0 (vecset is a jump target)", lp.FusedPairs)
	}
	var sawVecSetLabel bool
	for _, nd := range lp.Nodes {
		if nd.Kind == lower.KInstr && nd.Op == isa.OpVecSet {
			sawVecSetLabel = true
		}
	}
	if !sawVecSetLabel {
		t.Errorf("vecset was fused away despite being a jump target: %+v", lp.Nodes)
	}
}

// TestLowerFoldsProvenBranches: a program carrying the verifier's facts
// lowers with its decided branch folded and the dead arm dropped, and the
// JIT runs the folded form with the interpreter's result and steps. The
// cases of what decides a branch, and what must never fold, are
// internal/isa's facts tests.
func TestLowerFoldsProvenBranches(t *testing.T) {
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
	if rep.Facts == nil {
		t.Fatal("verifier exported no facts")
	}
	prog.Facts = rep.Facts
	lp, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if lp.FoldedBranches != 1 {
		t.Errorf("FoldedBranches = %d, want 1", lp.FoldedBranches)
	}
	if lp.DeadInsns != 2 {
		t.Errorf("DeadInsns = %d, want 2 (the infeasible fall-through)", lp.DeadInsns)
	}
	jit, interp, jerr, ierr := runBoth(t, stubEnv{}, prog, 0, 0, 0)
	if jerr != nil || ierr != nil {
		t.Fatal(jerr, ierr)
	}
	if want := [2]int64{222, 4}; jit != want || interp != want {
		t.Errorf("(r0, steps): jit %v, interp %v; want %v", jit, interp, want)
	}
}

func TestLowerRejectsTailCalls(t *testing.T) {
	// The IR owns tail calls (a terminal KTail node); only the Go emitter
	// declines them, and the JIT runs the chain.
	prog := &isa.Program{
		Name:  "tail",
		Insns: isa.MustAssemble("tailcall 4"),
		Tails: []int64{4},
	}
	lp, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if nd := lp.Nodes[len(lp.Nodes)-1]; nd.Kind != lower.KTail || nd.Imm != 4 || nd.Cost != 1 {
		t.Errorf("last node = %+v, want KTail to 4 with cost 1", nd)
	}
	if err := lp.Emittable(); !errors.Is(err, lower.ErrTailCall) {
		t.Errorf("Emittable(tailcall) = %v, want ErrTailCall", err)
	}
	env := stubEnv{tail: &isa.Program{Name: "callee", Insns: isa.MustAssemble("mov r0, r1\naddimm r0, 100\nexit")}}
	jit, interp, jerr, ierr := runBoth(t, env, prog, 7, 0, 0)
	if jerr != nil || ierr != nil {
		t.Fatal(jerr, ierr)
	}
	if want := [2]int64{107, 4}; jit != want || interp != want {
		t.Errorf("(r0, steps): jit %v, interp %v; want %v", jit, interp, want)
	}
}

func TestLowerRejectsNegativeVecIndex(t *testing.T) {
	// The verifier admits a negative vecset index against an unknown-length
	// vector (the runtime check traps); Go cannot compile a constant
	// negative index, so the emitter must decline, not miscompile — while
	// the JIT runs the shape and traps where the interpreter does.
	prog := &isa.Program{
		Name: "neg-index",
		Insns: []isa.Instr{
			{Op: isa.OpVecZero, Dst: 0, Imm: 4},
			{Op: isa.OpVecSet, Dst: 0, Src: 1, Imm: -5},
			{Op: isa.OpExit},
		},
	}
	lp, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Emittable(); !errors.Is(err, lower.ErrUnsupported) {
		t.Errorf("Emittable(negative index) = %v, want ErrUnsupported", err)
	}
	jit, interp, jerr, ierr := runBoth(t, stubEnv{}, prog, 0, 0, 0)
	if !errors.Is(jerr, vm.ErrVecBounds) || !errors.Is(ierr, vm.ErrVecBounds) {
		t.Fatalf("jit err = %v, interp err = %v; want ErrVecBounds from both", jerr, ierr)
	}
	if jit[1] != 2 || interp[1] != 2 {
		t.Errorf("steps at trap: jit %d, interp %d; want 2", jit[1], interp[1])
	}
}

func TestLowerStepBudgetOnTrap(t *testing.T) {
	// Division by zero at pc 2, right after a fused mulimm+addimm pair: the
	// pair charges 2 and the trapping instruction is charged too, so both
	// engines must report 3 executed steps.
	prog := &isa.Program{
		Name: "trap-steps",
		Insns: isa.MustAssemble(`
        mulimm r1, 3
        addimm r1, 4
        div    r1, r2
        mov    r0, r1
        exit`),
	}
	lp, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if lp.FusedPairs != 1 {
		t.Fatalf("FusedPairs = %d, want 1", lp.FusedPairs)
	}
	jit, interp, jerr, ierr := runBoth(t, stubEnv{}, prog, 5, 0, 0)
	if !errors.Is(jerr, vm.ErrDivByZero) || !errors.Is(ierr, vm.ErrDivByZero) {
		t.Fatalf("jit err = %v, interp err = %v; want ErrDivByZero from both", jerr, ierr)
	}
	if jit[1] != 3 || interp[1] != 3 {
		t.Errorf("steps at trap: jit %d, interp %d; want 3 (trapping instruction is charged)", jit[1], interp[1])
	}
}
