package vm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rmtk/internal/isa"
)

// fakeEnv is a self-contained Env for VM tests.
type fakeEnv struct {
	ctx     map[[2]int64]int64
	hist    map[int64][]int64
	match   func(table, key int64) int64
	helpers map[int64]func(args *[5]int64) (int64, error)
	mats    map[int64]fakeMat
	models  map[int64]func([]int64) int64
	vecs    map[int64][]int64
	tails   map[int64]*isa.Program
}

type fakeMat struct {
	in, out int
	w, b    []int64
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		ctx:     map[[2]int64]int64{},
		hist:    map[int64][]int64{},
		helpers: map[int64]func(args *[5]int64) (int64, error){},
		mats:    map[int64]fakeMat{},
		models:  map[int64]func([]int64) int64{},
		vecs:    map[int64][]int64{},
		tails:   map[int64]*isa.Program{},
	}
}

func (f *fakeEnv) CtxLoad(key, field int64) int64 { return f.ctx[[2]int64{key, field}] }
func (f *fakeEnv) CtxStore(key, field, val int64) { f.ctx[[2]int64{key, field}] = val }
func (f *fakeEnv) CtxHistPush(key, val int64)     { f.hist[key] = append(f.hist[key], val) }
func (f *fakeEnv) CtxHist(key int64, dst []int64) int {
	h := f.hist[key]
	if len(h) > len(dst) {
		h = h[len(h)-len(dst):]
	}
	return copy(dst, h)
}
func (f *fakeEnv) Match(table, key int64) int64 {
	if f.match == nil {
		return -1
	}
	return f.match(table, key)
}
func (f *fakeEnv) Call(helper int64, args *[5]int64) (int64, error) {
	h, ok := f.helpers[helper]
	if !ok {
		return 0, fmt.Errorf("no helper %d", helper)
	}
	return h(args)
}
func (f *fakeEnv) MatVec(id int64, in, out []int64) (int, error) {
	m, ok := f.mats[id]
	if !ok {
		return 0, fmt.Errorf("no matrix %d", id)
	}
	if len(in) != m.in {
		return 0, fmt.Errorf("matrix %d: input %d != %d", id, len(in), m.in)
	}
	for o := 0; o < m.out; o++ {
		sum := m.b[o]
		for i, x := range in {
			sum += m.w[o*m.in+i] * x
		}
		out[o] = sum
	}
	return m.out, nil
}
func (f *fakeEnv) Infer(model int64, feats []int64) (int64, error) {
	m, ok := f.models[model]
	if !ok {
		return 0, fmt.Errorf("no model %d", model)
	}
	return m(feats), nil
}
func (f *fakeEnv) VecLoad(id int64, dst []int64) (int, error) {
	v, ok := f.vecs[id]
	if !ok {
		return 0, fmt.Errorf("no vec %d", id)
	}
	return copy(dst, v), nil
}
func (f *fakeEnv) VecStore(id int64, src []int64) error {
	f.vecs[id] = append([]int64(nil), src...)
	return nil
}
func (f *fakeEnv) TailProgram(id int64) (*isa.Program, error) {
	p, ok := f.tails[id]
	if !ok {
		return nil, fmt.Errorf("no tail %d", id)
	}
	return p, nil
}

// engines builds both engines for a program.
func engines(t *testing.T, env Env, src string) []Engine {
	t.Helper()
	prog := &isa.Program{Name: "t", Insns: isa.MustAssemble(src)}
	ip, err := NewInterpreter(prog)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Compile(env, prog)
	if err != nil {
		t.Fatal(err)
	}
	return []Engine{ip, j}
}

// runBoth asserts interpreter and JIT agree and returns the shared result.
func runBoth(t *testing.T, env Env, src string, r1, r2, r3 int64) int64 {
	t.Helper()
	var results []int64
	for _, e := range engines(t, env, src) {
		got, err := e.Run(env, NewState(), r1, r2, r3)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		results = append(results, got)
	}
	if results[0] != results[1] {
		t.Fatalf("interp=%d jit=%d", results[0], results[1])
	}
	return results[0]
}

// errBoth asserts both engines fail with the sentinel error.
func errBoth(t *testing.T, env Env, src string, sentinel error) {
	t.Helper()
	for _, e := range engines(t, env, src) {
		_, err := e.Run(env, NewState(), 0, 0, 0)
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: err = %v, want %v", e.Name(), err, sentinel)
		}
	}
}

func TestScalarALU(t *testing.T) {
	env := newFakeEnv()
	cases := []struct {
		src  string
		want int64
	}{
		{"movimm r0, 42\nexit", 42},
		{"movimm r4, 10\nmovimm r5, 3\nmov r0, r4\nadd r0, r5\nexit", 13},
		{"movimm r4, 10\naddimm r4, -4\nmov r0, r4\nexit", 6},
		{"movimm r4, 10\nmovimm r5, 3\nmov r0, r4\nsub r0, r5\nexit", 7},
		{"movimm r4, 10\nmovimm r5, 3\nmov r0, r4\nmul r0, r5\nexit", 30},
		{"movimm r4, 7\nmulimm r4, -2\nmov r0, r4\nexit", -14},
		{"movimm r4, 17\nmovimm r5, 5\nmov r0, r4\ndiv r0, r5\nexit", 3},
		{"movimm r4, 17\nmovimm r5, 5\nmov r0, r4\nmod r0, r5\nexit", 2},
		{"movimm r4, 12\nmovimm r5, 10\nmov r0, r4\nand r0, r5\nexit", 8},
		{"movimm r4, 12\nmovimm r5, 10\nmov r0, r4\nor r0, r5\nexit", 14},
		{"movimm r4, 12\nmovimm r5, 10\nmov r0, r4\nxor r0, r5\nexit", 6},
		{"movimm r4, 3\nmovimm r5, 2\nmov r0, r4\nshl r0, r5\nexit", 12},
		{"movimm r4, -8\nmovimm r5, 1\nmov r0, r4\nshr r0, r5\nexit", -4},
		{"movimm r0, 5\nneg r0\nexit", -5},
		{"movimm r0, -5\nabs r0\nexit", 5},
		{"movimm r0, 5\nmovimm r4, 3\nmin r0, r4\nexit", 3},
		{"movimm r0, 5\nmovimm r4, 3\nmax r0, r4\nexit", 5},
	}
	for _, c := range cases {
		if got := runBoth(t, env, c.src, 0, 0, 0); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestJumps(t *testing.T) {
	env := newFakeEnv()
	// Each comparison flavor, register and immediate.
	for _, c := range []struct {
		cond string
		a, b int64
		want int64
	}{
		{"jeq", 3, 3, 1}, {"jeq", 3, 4, 0},
		{"jne", 3, 4, 1}, {"jne", 3, 3, 0},
		{"jgt", 4, 3, 1}, {"jgt", 3, 3, 0},
		{"jge", 3, 3, 1}, {"jge", 2, 3, 0},
		{"jlt", 2, 3, 1}, {"jlt", 3, 3, 0},
		{"jle", 3, 3, 1}, {"jle", 4, 3, 0},
	} {
		src := fmt.Sprintf(`
        movimm r4, %d
        movimm r5, %d
        %s r4, r5, yes
        movimm r0, 0
        exit
yes:    movimm r0, 1
        exit`, c.a, c.b, c.cond)
		if got := runBoth(t, env, src, 0, 0, 0); got != c.want {
			t.Errorf("%s %d,%d = %d, want %d", c.cond, c.a, c.b, got, c.want)
		}
		srcImm := fmt.Sprintf(`
        movimm r4, %d
        %si r4, %d, yes
        movimm r0, 0
        exit
yes:    movimm r0, 1
        exit`, c.a, c.cond, c.b)
		if got := runBoth(t, env, srcImm, 0, 0, 0); got != c.want {
			t.Errorf("%si %d,%d = %d, want %d", c.cond, c.a, c.b, got, c.want)
		}
	}
	// Unconditional jump skips.
	if got := runBoth(t, env, "movimm r0, 1\njmp +1\nmovimm r0, 2\nexit", 0, 0, 0); got != 1 {
		t.Fatalf("jmp result %d, want 1", got)
	}
}

func TestStack(t *testing.T) {
	env := newFakeEnv()
	got := runBoth(t, env, `
        movimm  r4, 77
        ststack [5], r4
        movimm  r4, 0
        ldstack r0, [5]
        exit`, 0, 0, 0)
	if got != 77 {
		t.Fatalf("stack roundtrip = %d", got)
	}
}

func TestHookArguments(t *testing.T) {
	env := newFakeEnv()
	got := runBoth(t, env, "mov r0, r1\nadd r0, r2\nadd r0, r3\nexit", 10, 20, 30)
	if got != 60 {
		t.Fatalf("r1+r2+r3 = %d, want 60", got)
	}
}

func TestCtxOps(t *testing.T) {
	env := newFakeEnv()
	env.ctx[[2]int64{7, 2}] = 99
	got := runBoth(t, env, `
        movimm r4, 7
        ldctxt r0, r4, 2
        movimm r5, 123
        stctxt r4, 3, r5
        histpush r4, r0
        exit`, 0, 0, 0)
	if got != 99 {
		t.Fatalf("ldctxt = %d", got)
	}
	if env.ctx[[2]int64{7, 3}] != 123 {
		t.Fatalf("stctxt wrote %d", env.ctx[[2]int64{7, 3}])
	}
	// histpush ran twice (once per engine).
	if len(env.hist[7]) != 2 || env.hist[7][0] != 99 {
		t.Fatalf("hist = %v", env.hist[7])
	}
}

func TestMatchCtxt(t *testing.T) {
	env := newFakeEnv()
	env.match = func(table, key int64) int64 {
		if table == 3 && key == 42 {
			return 1234
		}
		return -1
	}
	got := runBoth(t, env, "movimm r4, 42\nmatchctxt r0, r4, 3\nexit", 0, 0, 0)
	if got != 1234 {
		t.Fatalf("matchctxt = %d", got)
	}
}

func TestHelperCallAndTrap(t *testing.T) {
	env := newFakeEnv()
	env.helpers[9] = func(args *[5]int64) (int64, error) {
		return args[0] * 2, nil
	}
	got := runBoth(t, env, "movimm r1, 21\ncall 9\nexit", 0, 0, 0)
	if got != 42 {
		t.Fatalf("helper call = %d", got)
	}
	env.helpers[10] = func(*[5]int64) (int64, error) { return 0, errors.New("boom") }
	errBoth(t, env, "call 10\nmovimm r0, 0\nexit", ErrHelperFailed)
}

// TestHelperCallsDoNotAllocate: a run that asks a history length and emits
// twice (helpers shaped like rmt_hist_len and rmt_emit, the emission list
// already grown) allocates nothing on either engine: the argument block
// Env.Call takes by pointer belongs to the State.
func TestHelperCallsDoNotAllocate(t *testing.T) {
	env := newFakeEnv()
	env.hist[7] = []int64{1, 2, 3}
	emitted := make([]int64, 0, 4)
	env.helpers[5] = func(args *[5]int64) (int64, error) { return int64(len(env.hist[args[0]])), nil }
	env.helpers[1] = func(args *[5]int64) (int64, error) {
		emitted = append(emitted, args[0])
		return 1, nil
	}
	const src = "call 5\nmov r6, r0\nmovimm r1, 40\ncall 1\nadd r1, r6\ncall 1\nmov r0, r6\nexit"
	for _, e := range engines(t, env, src) {
		st := NewState()
		allocs := testing.AllocsPerRun(100, func() {
			emitted = emitted[:0]
			if got, err := e.Run(env, st, 7, 0, 0); err != nil || got != 3 {
				t.Fatalf("%s: %d, %v", e.Name(), got, err)
			}
		})
		if !slices.Equal(emitted, []int64{40, 43}) {
			t.Fatalf("%s: emitted %v", e.Name(), emitted)
		}
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per run with three helper calls, want 0", e.Name(), allocs)
		}
	}
}

func TestDivModByZeroTraps(t *testing.T) {
	env := newFakeEnv()
	errBoth(t, env, "movimm r4, 1\nmovimm r5, 0\ndiv r4, r5\nmovimm r0, 0\nexit", ErrDivByZero)
	errBoth(t, env, "movimm r4, 1\nmovimm r5, 0\nmod r4, r5\nmovimm r0, 0\nexit", ErrDivByZero)
}

func TestVectorOps(t *testing.T) {
	env := newFakeEnv()
	env.vecs[1] = []int64{3, -1, 4, 1, 5}
	cases := []struct {
		src  string
		want int64
	}{
		{"vecld v0, 1\nvecsum r0, v0\nexit", 12},
		{"vecld v0, 1\nvecargmax r0, v0\nexit", 4},
		{"vecld v0, 1\nscalarval r0, v0, 2\nexit", 4},
		{"vecld v0, 1\nvecrelu v0\nvecsum r0, v0\nexit", 13},
		{"vecld v0, 1\nvecld v1, 1\nvecadd v0, v1\nvecsum r0, v0\nexit", 24},
		{"vecld v0, 1\nvecld v1, 1\nvecmul v0, v1\nvecsum r0, v0\nexit", 52},
		{"vecld v0, 1\nvecld v1, 1\nvecdot r0, v0, v1\nexit", 52},
		{"veczero v0, 4\nvecsum r0, v0\nexit", 0},
		{"vecld v0, 1\nmovimm r4, 9\nvecset v0, 0, r4\nscalarval r0, v0, 0\nexit", 9},
		{"vecld v0, 1\nmovimm r4, 7\nvecpush v0, r4\nscalarval r0, v0, 4\nexit", 7},
		// After push the old v[1] moved to v[0].
		{"vecld v0, 1\nmovimm r4, 7\nvecpush v0, r4\nscalarval r0, v0, 0\nexit", -1},
		{"vecld v0, 1\nvecquant v0, 2, 1\nscalarval r0, v0, 0\nexit", 3},
		{"vecld v0, 1\nvecclamp v0, 3\nscalarval r0, v0, 4\nexit", 3},
		{"vecld v0, 1\nvecclamp v0, 3\nscalarval r0, v0, 1\nexit", -1},
	}
	for _, c := range cases {
		if got := runBoth(t, env, c.src, 0, 0, 0); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestVecStore(t *testing.T) {
	env := newFakeEnv()
	env.vecs[1] = []int64{1, 2, 3}
	env.vecs[2] = []int64{0, 0, 0}
	runBoth(t, env, "vecld v0, 1\nvecrelu v0\nvecst 2, v0\nmovimm r0, 0\nexit", 0, 0, 0)
	if env.vecs[2][2] != 3 {
		t.Fatalf("vecst wrote %v", env.vecs[2])
	}
}

func TestVecLdHist(t *testing.T) {
	env := newFakeEnv()
	env.hist[5] = []int64{10, 20, 30, 40}
	got := runBoth(t, env, "movimm r4, 5\nvecldhist v0, r4, 3\nvecsum r0, v0\nexit", 0, 0, 0)
	if got != 90 { // last three: 20+30+40
		t.Fatalf("vecldhist sum = %d, want 90", got)
	}
}

func TestMatMul(t *testing.T) {
	env := newFakeEnv()
	env.vecs[1] = []int64{2, 3}
	env.mats[7] = fakeMat{in: 2, out: 3, w: []int64{1, 0, 0, 1, 1, 1}, b: []int64{10, 20, 30}}
	got := runBoth(t, env, "vecld v0, 1\nmatmul v1, v0, 7\nvecsum r0, v1\nexit", 0, 0, 0)
	// [2+10, 3+20, 5+30] = [12, 23, 35] -> 70
	if got != 70 {
		t.Fatalf("matmul sum = %d, want 70", got)
	}
	// In-place matmul (dst == src) must read the original input.
	got = runBoth(t, env, "vecld v0, 1\nmatmul v0, v0, 7\nvecsum r0, v0\nexit", 0, 0, 0)
	if got != 70 {
		t.Fatalf("in-place matmul sum = %d, want 70", got)
	}
}

func TestMLInfer(t *testing.T) {
	env := newFakeEnv()
	env.vecs[1] = []int64{5, 6}
	env.models[3] = func(x []int64) int64 { return x[0] + x[1] }
	got := runBoth(t, env, "vecld v0, 1\nmlinfer r0, v0, 3\nexit", 0, 0, 0)
	if got != 11 {
		t.Fatalf("mlinfer = %d, want 11", got)
	}
}

func TestVectorTraps(t *testing.T) {
	env := newFakeEnv()
	env.vecs[1] = []int64{1, 2}
	errBoth(t, env, "vecld v0, 1\nscalarval r0, v0, 5\nexit", ErrVecBounds)
	errBoth(t, env, "veczero v0, 2\nveczero v1, 3\nvecadd v0, v1\nmovimm r0, 0\nexit", ErrVecLen)
	// Reading an unset vec with vecsum sums zero elements: not a trap.
	if got := runBoth(t, env, "vecsum r0, v3\nexit", 0, 0, 0); got != 0 {
		t.Fatalf("vecsum of unset vec = %d, want 0", got)
	}
	errBothUnset(t)
}

// errBothUnset checks ops that require a set vector register.
func errBothUnset(t *testing.T) {
	env := newFakeEnv()
	errBoth(t, env, "vecst 1, v0\nmovimm r0, 0\nexit", ErrVecUnset)
	errBoth(t, env, "vecargmax r0, v0\nexit", ErrVecUnset)
	errBoth(t, env, "vecpush v0, r1\nmovimm r0, 0\nexit", ErrVecUnset)
	errBoth(t, env, "matmul v1, v0, 7\nmovimm r0, 0\nexit", ErrVecUnset)
	errBoth(t, env, "mlinfer r0, v0, 3\nexit", ErrVecUnset)
}

func TestTailCall(t *testing.T) {
	env := newFakeEnv()
	env.tails[2] = &isa.Program{
		Name:  "callee",
		Insns: isa.MustAssemble("mov r0, r1\naddimm r0, 100\nexit"),
	}
	got := runBoth(t, env, "tailcall 2", 7, 0, 0)
	if got != 107 {
		t.Fatalf("tailcall = %d, want 107 (registers must survive the transfer)", got)
	}
}

func TestTailCallDepthLimit(t *testing.T) {
	env := newFakeEnv()
	// Self-recursive tail call: the interpreter runs MaxTailCalls deep and
	// then errors; the JIT rejects the cycle outright at compile time.
	self := &isa.Program{Name: "self", Insns: isa.MustAssemble("tailcall 1")}
	env.tails[1] = self
	ip, err := NewInterpreter(self)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Run(env, NewState(), 0, 0, 0); !errors.Is(err, ErrTailDepth) {
		t.Fatalf("err = %v, want ErrTailDepth", err)
	}
	if _, err := Compile(env, self); err == nil {
		t.Fatal("JIT should reject self tail-call cycle at compile time")
	}
}

func TestTailCycleRejectedByJIT(t *testing.T) {
	env := newFakeEnv()
	a := &isa.Program{Name: "a", Insns: isa.MustAssemble("tailcall 2")}
	b := &isa.Program{Name: "b", Insns: isa.MustAssemble("tailcall 1")}
	env.tails[1], env.tails[2] = a, b
	if _, err := Compile(env, a); err == nil {
		t.Fatal("JIT should reject tail-call cycles")
	}
}

func TestStepBudgetOnUnverifiedLoop(t *testing.T) {
	// The interpreter is defense-in-depth: a raw backward jump (which the
	// verifier would reject) must hit the step budget, not hang. The JIT
	// refuses the back-edge outright: lowering only admits forward jumps.
	env := newFakeEnv()
	prog := &isa.Program{Name: "loop", Insns: []isa.Instr{
		{Op: isa.OpMovImm, Dst: 0, Imm: 1},
		{Op: isa.OpJmp, Off: -2},
		{Op: isa.OpExit},
	}}
	ip, err := NewInterpreter(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Run(env, NewState(), 0, 0, 0); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	if _, err := Compile(env, prog); !errors.Is(err, ErrBadJump) {
		t.Fatalf("jit compile err = %v, want ErrBadJump", err)
	}

	// The JIT's own budget check: an uncertified segment stops before the
	// node that would overrun, reporting budget+1 steps like the interpreter
	// — here in the middle of a fused pair (mulimm+addimm charges 2).
	j, err := Compile(env, &isa.Program{Name: "straight", Insns: isa.MustAssemble(
		"movimm r0, 1\nmulimm r0, 3\naddimm r0, 4\nexit")})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	st.reset(0, 0, 0)
	if _, err := j.run(&exec{env: env, st: st, budget: 2}); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("jit err = %v, want ErrStepBudget", err)
	}
	if st.Steps() != 3 {
		t.Fatalf("jit steps at budget trap = %d, want budget+1 = 3", st.Steps())
	}
}

func TestFellOffEnd(t *testing.T) {
	env := newFakeEnv()
	prog := &isa.Program{Name: "off", Insns: []isa.Instr{{Op: isa.OpNop}}}
	ip, err := NewInterpreter(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.Run(env, NewState(), 0, 0, 0); !errors.Is(err, ErrFellOffEnd) {
		t.Fatalf("err = %v, want ErrFellOffEnd", err)
	}
	if _, err := Compile(env, prog); err == nil {
		t.Fatal("JIT should reject fall-off at compile time")
	}
}

func TestStateReuse(t *testing.T) {
	env := newFakeEnv()
	prog := &isa.Program{Name: "p", Insns: isa.MustAssemble("mov r0, r1\nexit")}
	ip, _ := NewInterpreter(prog)
	st := NewState()
	for i := int64(0); i < 10; i++ {
		got, err := ip.Run(env, st, i, 0, 0)
		if err != nil || got != i {
			t.Fatalf("iteration %d: got %d err %v", i, got, err)
		}
	}
}

// TestInterpJITEquivalence generates random verifier-shaped programs (all
// registers initialized up front, only forward jumps, terminated by exit)
// and checks the two engines compute identical results and register files.
func TestInterpJITEquivalence(t *testing.T) {
	env := newFakeEnv()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		prog := randomProgram(rng)
		ip, err := NewInterpreter(prog)
		if err != nil {
			t.Fatal(err)
		}
		j, err := Compile(env, prog)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, prog.Disassemble())
		}
		stI, stJ := NewState(), NewState()
		r1, r2, r3 := rng.Int63n(100), rng.Int63n(100), rng.Int63n(100)
		gotI, errI := ip.Run(env, stI, r1, r2, r3)
		gotJ, errJ := j.Run(env, stJ, r1, r2, r3)
		if (errI == nil) != (errJ == nil) {
			t.Fatalf("trial %d: interp err=%v jit err=%v\n%s", trial, errI, errJ, prog.Disassemble())
		}
		if errI != nil {
			continue
		}
		if gotI != gotJ {
			t.Fatalf("trial %d: interp=%d jit=%d\n%s", trial, gotI, gotJ, prog.Disassemble())
		}
		if stI.Regs != stJ.Regs {
			t.Fatalf("trial %d: register files diverge\ninterp=%v\njit=%v\n%s",
				trial, stI.Regs, stJ.Regs, prog.Disassemble())
		}
	}
}

// randomProgram builds a random but well-formed straight-line-with-forward-
// jumps program over registers r0..r7.
func randomProgram(rng *rand.Rand) *isa.Program {
	n := 5 + rng.Intn(30)
	var ins []isa.Instr
	// Prologue: initialize r0..r7.
	for r := 0; r < 8; r++ {
		ins = append(ins, isa.Instr{Op: isa.OpMovImm, Dst: uint8(r), Imm: rng.Int63n(200) - 100})
	}
	body := len(ins)
	alu := []isa.Opcode{
		isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpMin, isa.OpMax, isa.OpAddImm, isa.OpMulImm,
		isa.OpNeg, isa.OpAbs,
	}
	jumps := []isa.Opcode{
		isa.OpJEq, isa.OpJNe, isa.OpJGt, isa.OpJGe, isa.OpJLt, isa.OpJLe,
		isa.OpJEqImm, isa.OpJGtImm, isa.OpJLtImm,
	}
	for i := 0; i < n; i++ {
		pos := body + i
		last := body + n // exit position
		if rng.Intn(4) == 0 && pos+1 < last {
			op := jumps[rng.Intn(len(jumps))]
			maxOff := last - pos - 1
			ins = append(ins, isa.Instr{
				Op:  op,
				Dst: uint8(rng.Intn(8)),
				Src: uint8(rng.Intn(8)),
				Imm: rng.Int63n(20) - 10,
				Off: int16(1 + rng.Intn(maxOff)),
			})
			continue
		}
		op := alu[rng.Intn(len(alu))]
		ins = append(ins, isa.Instr{
			Op:  op,
			Dst: uint8(rng.Intn(8)),
			Src: uint8(rng.Intn(8)),
			Imm: rng.Int63n(20) - 10,
		})
	}
	ins = append(ins, isa.Instr{Op: isa.OpExit})
	return &isa.Program{Name: "rand", Insns: ins}
}
