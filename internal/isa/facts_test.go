package isa_test

import (
	"errors"
	"fmt"
	"testing"

	"rmtk/internal/aot/lower"
	"rmtk/internal/isa"
	"rmtk/internal/verifier"
	"rmtk/internal/vm"
)

// Admission attaches the verifier's Facts to the program, and the lowering
// both native backends share folds every branch they decide and drops the
// dead arm. These tests hold that optimization to its contract: a decided
// branch folds, whether a constant, a join of two ranges or earlier
// branches decided it; an undecided branch, a helper's result or a trap
// survives; and the JIT runs the folded form as the interpreter runs the
// source.

// inertEnv is a vm.Env with no state: every helper returns 0.
type inertEnv struct{}

func (inertEnv) CtxLoad(key, field int64) int64                   { return 0 }
func (inertEnv) CtxStore(key, field, val int64)                   {}
func (inertEnv) CtxHistPush(key, val int64)                       {}
func (inertEnv) CtxHist(key int64, dst []int64) int               { return 0 }
func (inertEnv) Match(table, key int64) int64                     { return -1 }
func (inertEnv) Call(helper int64, args *[5]int64) (int64, error) { return 0, nil }
func (inertEnv) MatVec(id int64, in, out []int64) (int, error)    { return 0, errors.New("no matrices") }
func (inertEnv) MatOutLen(id int64) (int, error)                  { return 0, errors.New("no matrices") }
func (inertEnv) Infer(model int64, x []int64) (int64, error)      { return 0, errors.New("no models") }
func (inertEnv) VecLoad(id int64, dst []int64) (int, error)       { return 0, errors.New("no vectors") }
func (inertEnv) VecStore(id int64, src []int64) error             { return errors.New("no vectors") }
func (inertEnv) TailProgram(id int64) (*isa.Program, error) {
	return nil, errors.New("no tail programs")
}

// admitFolded verifies src, attaches its facts the way admission does and
// lowers the result. helpers are declared and whitelisted at cost 1.
func admitFolded(t *testing.T, src string, helpers ...int64) (*isa.Program, *lower.Prog) {
	t.Helper()
	prog := &isa.Program{Name: t.Name(), Insns: isa.MustAssemble(src), Helpers: helpers}
	cfg := verifier.Config{Helpers: map[int64]verifier.HelperSpec{}}
	for _, h := range helpers {
		cfg.Helpers[h] = verifier.HelperSpec{Name: "h", Cost: 1}
	}
	rep, err := verifier.Verify(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog.Facts = rep.Facts
	lp, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, lp
}

// runAgree runs prog on the JIT (which lowers with prog.Facts) and on the
// interpreter, fails unless both return the same r0, steps and error, and
// returns the JIT's r0 and error.
func runAgree(t *testing.T, prog *isa.Program, r1, r2 int64) (int64, error) {
	t.Helper()
	j, err := vm.Compile(inertEnv{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := vm.NewInterpreter(prog)
	if err != nil {
		t.Fatal(err)
	}
	sj, si := vm.NewState(), vm.NewState()
	jr, jerr := j.Run(inertEnv{}, sj, r1, r2, 0)
	ir, ierr := ip.Run(inertEnv{}, si, r1, r2, 0)
	if fmt.Sprint(jerr) != fmt.Sprint(ierr) || sj.Steps() != si.Steps() || (jerr == nil && jr != ir) {
		t.Fatalf("r1=%d r2=%d: jit (%d, %d steps, %v), interp (%d, %d steps, %v)",
			r1, r2, jr, sj.Steps(), jerr, ir, si.Steps(), ierr)
	}
	return jr, jerr
}

// movImm reports whether a lowered node still writes the constant imm.
func movImm(lp *lower.Prog, imm int64) bool {
	for _, nd := range lp.Nodes {
		if nd.Kind == lower.KInstr && nd.Op == isa.OpMovImm && nd.Imm == imm {
			return true
		}
	}
	return false
}

// kinds counts the lowered nodes of kind k.
func kinds(lp *lower.Prog, k lower.Kind) int {
	n := 0
	for _, nd := range lp.Nodes {
		if nd.Kind == k {
			n++
		}
	}
	return n
}

// opNodes counts the lowered nodes that execute op.
func opNodes(lp *lower.Prog, op isa.Opcode) int {
	n := 0
	for _, nd := range lp.Nodes {
		if nd.Kind == lower.KInstr && nd.Op == op {
			n++
		}
	}
	return n
}

func TestOptimizeConstantFolding(t *testing.T) {
	// The multiply chain leaves r0 at the constant 42, which decides the
	// branch on it.
	prog, lp := admitFolded(t, `
        movimm r1, 6
        movimm r2, 7
        mov    r0, r1
        mul    r0, r2
        jeqi   r0, 42, yes
        movimm r0, 111
        exit
yes:    exit`)
	if prog.Facts.Branches[4] != isa.BranchAlwaysTaken || lp.FoldedBranches != 1 || movImm(lp, 111) {
		t.Fatalf("branch on the constant product not folded: decision %d, %+v", prog.Facts.Branches[4], lp.Nodes)
	}
	if got, err := runAgree(t, prog, 0, 0); err != nil || got != 42 {
		t.Fatalf("run = (%d, %v), want 42", got, err)
	}
}

func TestOptimizeBranchFoldingAndDCE(t *testing.T) {
	prog, lp := admitFolded(t, `
        movimm r1, 5
        jgti   r1, 3, yes     ; always taken
        movimm r0, 111        ; dead
        exit                  ; dead
yes:    movimm r0, 222
        exit`)
	if lp.FoldedBranches != 1 || lp.DeadInsns != 2 || len(lp.Nodes) >= len(prog.Insns) {
		t.Fatalf("folded %d branches, dropped %d insns, %d nodes for %d insns",
			lp.FoldedBranches, lp.DeadInsns, len(lp.Nodes), len(prog.Insns))
	}
	if movImm(lp, 111) {
		t.Fatal("dead branch survived")
	}
	if got, err := runAgree(t, prog, 0, 0); err != nil || got != 222 {
		t.Fatalf("run = (%d, %v), want 222", got, err)
	}
}

func TestOptimizeBranchNeverTaken(t *testing.T) {
	prog, lp := admitFolded(t, `
        movimm r1, 1
        jgti   r1, 3, yes     ; never taken
        movimm r0, 111
        exit
yes:    movimm r0, 222
        exit`)
	// The never-taken branch becomes a cost-only nop and the 222 block dies.
	if movImm(lp, 222) {
		t.Fatal("unreachable target survived")
	}
	if kinds(lp, lower.KBranch) != 0 {
		t.Fatal("decided branch survived")
	}
	if got, err := runAgree(t, prog, 0, 0); err != nil || got != 111 {
		t.Fatalf("run = (%d, %v), want 111", got, err)
	}
}

func TestOptimizeKeepsTraps(t *testing.T) {
	prog, lp := admitFolded(t, `
        movimm r1, 10
        movimm r2, 0
        div    r1, r2         ; must keep trapping
        movimm r0, 0
        exit`)
	if opNodes(lp, isa.OpDiv) != 1 {
		t.Fatal("trapping division was folded away")
	}
	if _, err := runAgree(t, prog, 0, 0); !errors.Is(err, vm.ErrDivByZero) {
		t.Fatalf("run err = %v, want ErrDivByZero", err)
	}
}

func TestOptimizeHelperClobbersR0(t *testing.T) {
	// call writes R0: the constant 5 from before it must not decide the
	// branch after it.
	prog, lp := admitFolded(t, `
        movimm r0, 5
        call   1
        jeqi   r0, 5, five
        movimm r0, 1
        exit
five:   movimm r0, 2
        exit`, 1)
	if prog.Facts.Branches[2] != isa.BranchBoth || kinds(lp, lower.KBranch) != 1 {
		t.Fatalf("constant propagated across helper call: decision %d, %+v", prog.Facts.Branches[2], lp.Nodes)
	}
	if got, err := runAgree(t, prog, 0, 0); err != nil || got != 1 {
		t.Fatalf("run = (%d, %v), want 1 (the helper returns 0)", got, err)
	}
}

func TestOptimizeBlockBoundariesConservative(t *testing.T) {
	// r5 differs across the join: the branch after the label stays.
	prog, lp := admitFolded(t, `
        jeqi   r1, 0, other
        movimm r5, 1
        jmp    join
other:  movimm r5, 2
join:   jeqi   r5, 1, one
        movimm r0, 20
        exit
one:    movimm r0, 10
        exit`)
	if prog.Facts.Branches[4] != isa.BranchBoth || kinds(lp, lower.KBranch) != 2 || lp.DeadInsns != 0 {
		t.Fatalf("join folded unsoundly: decision %d, %+v", prog.Facts.Branches[4], lp.Nodes)
	}
	for r1, want := range map[int64]int64{0: 20, 1: 10} {
		if got, err := runAgree(t, prog, r1, 0); err != nil || got != want {
			t.Fatalf("r1=%d: run = (%d, %v), want %d", r1, got, err, want)
		}
	}
}

func TestFoldRangesDecidesBranchAcrossJoin(t *testing.T) {
	// r1 is 2 on one arm and 7 on the other: not a single constant, but its
	// range [2,7] decides the later branch, since r1 > 0 always holds.
	prog, lp := admitFolded(t, `
        movimm r1, 2
        jgti   r2, 0, a
        movimm r1, 7
a:      jgti   r1, 0, good
        movimm r0, 111        ; dead: r1 in [2,7] is always > 0
        exit
good:   movimm r0, 222
        exit`)
	if movImm(lp, 111) {
		t.Fatalf("range-dead arm survived: %+v", lp.Nodes)
	}
	// The r2 branch stays (r2 unknown); the r1 branch must be decided.
	if n := kinds(lp, lower.KBranch); n != 1 || lp.FoldedBranches != 1 {
		t.Fatalf("%d branches kept, %d folded; want 1, 1: %+v", n, lp.FoldedBranches, lp.Nodes)
	}
	for _, r2 := range []int64{0, 1} {
		if got, err := runAgree(t, prog, 0, r2); err != nil || got != 222 {
			t.Fatalf("r2=%d: run = (%d, %v), want 222", r2, got, err)
		}
	}
}

func TestFoldRangesNarrowsThroughBranch(t *testing.T) {
	// The fall-throughs of `jgti r1, 100` and `jlei r1, 0` pin r1 to
	// [1,100], so r1 > 0 is decided by narrowing alone, no constants
	// anywhere.
	prog, lp := admitFolded(t, `
        jgti   r1, 100, big
        jlei   r1, 0, small
        jgti   r1, 0, mid     ; always: fall-throughs pin r1 to [1,100]
        movimm r0, 111        ; dead
        exit
big:    movimm r0, 1
        exit
small:  movimm r0, 2
        exit
mid:    movimm r0, 3
        exit`)
	if movImm(lp, 111) || lp.FoldedBranches != 1 {
		t.Fatalf("narrowing-dead arm survived: %+v", lp.Nodes)
	}
	for r1, want := range map[int64]int64{101: 1, 0: 2, 50: 3} {
		if got, err := runAgree(t, prog, r1, 0); err != nil || got != want {
			t.Fatalf("r1=%d: run = (%d, %v), want %d", r1, got, err, want)
		}
	}
}

func TestFoldRangesKeepsDivTraps(t *testing.T) {
	// The quotient's range is tracked, but a division is never dropped, so
	// the divide-by-zero trap survives even when the result would be a
	// point.
	prog, lp := admitFolded(t, `
        movimm r1, 0
        movimm r2, 0
        div    r1, r2
        movimm r0, 0
        exit`)
	if opNodes(lp, isa.OpDiv) != 1 {
		t.Fatalf("trapping div folded away: %+v", lp.Nodes)
	}
	if _, err := runAgree(t, prog, 0, 0); !errors.Is(err, vm.ErrDivByZero) {
		t.Fatalf("run err = %v, want ErrDivByZero", err)
	}
}

func TestFoldRangesPreservesSemanticsOnUnknownInput(t *testing.T) {
	// A branch on caller-controlled r1 must never be decided.
	prog, lp := admitFolded(t, `
        jgti   r1, 5, a
        movimm r0, 1
        exit
a:      movimm r0, 2
        exit`)
	if prog.Facts.Branches[0] != isa.BranchBoth || kinds(lp, lower.KBranch) != 1 {
		t.Fatalf("branch on unknown input was decided: %+v", lp.Nodes)
	}
	for r1, want := range map[int64]int64{7: 2, 5: 1, -3: 1} {
		if got, err := runAgree(t, prog, r1, 0); err != nil || got != want {
			t.Fatalf("r1=%d: run = (%d, %v), want %d", r1, got, err, want)
		}
	}
}

func TestOptimizeForwardEdgesPreserved(t *testing.T) {
	// The folded always-taken branch becomes a jump over the dead arm; like
	// every transfer the lowering keeps, it must still point forward.
	prog, lp := admitFolded(t, `
        movimm r1, 1
        jeqi   r1, 1, far
        movimm r0, 0
        exit
        nop
far:    movimm r0, 1
        exit`)
	if lp.FoldedBranches != 1 {
		t.Fatalf("folded %d branches, want 1", lp.FoldedBranches)
	}
	for i, nd := range lp.Nodes {
		if (nd.Kind == lower.KJmp || nd.Kind == lower.KBranch) && nd.Target <= i {
			t.Fatalf("lowering introduced a back edge at node %d: %+v", i, lp.Nodes)
		}
	}
	if got, err := runAgree(t, prog, 0, 0); err != nil || got != 1 {
		t.Fatalf("run = (%d, %v), want 1", got, err)
	}
}
