package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"rmtk/internal/aot/lower"
	"rmtk/internal/dp"
	"rmtk/internal/isa"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
)

func newTestKernel(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	return NewKernel(cfg)
}

func install(t *testing.T, k *Kernel, prog *isa.Program) int64 {
	t.Helper()
	id, _, err := k.InstallProgram(prog)
	if err != nil {
		t.Fatalf("install %q: %v", prog.Name, err)
	}
	return id
}

func TestInstallAndRunProgram(t *testing.T) {
	k := newTestKernel(t, Config{})
	prog := &isa.Program{
		Name:  "sum",
		Insns: isa.MustAssemble("mov r0, r1\nadd r0, r2\nadd r0, r3\nexit"),
	}
	id := install(t, k, prog)
	got, _, err := k.RunProgramByName("sum", 1, 2, 3)
	if err != nil || got != 6 {
		t.Fatalf("got %d err %v", got, err)
	}
	// The artifacts go on the admitted copy only, never on the caller's
	// program.
	if prog.Proofs != nil || prog.Facts != nil || prog.StaticSteps != 0 {
		t.Fatalf("caller's program mutated: proofs %v, facts %v, static steps %d", prog.Proofs, prog.Facts, prog.StaticSteps)
	}
	if a := k.progs[id].prog; a.Proofs == nil || a.Facts == nil || a.StaticSteps != 4 {
		t.Fatalf("admitted program lacks artifacts: proofs %v, facts %v, static steps %d", a.Proofs, a.Facts, a.StaticSteps)
	}
}

func TestInstallRejectsBadProgram(t *testing.T) {
	k := newTestKernel(t, Config{})
	_, _, err := k.InstallProgram(&isa.Program{
		Name:  "bad",
		Insns: isa.MustAssemble("mov r0, r9\nexit"), // uninitialized read
	})
	if !errors.Is(err, verifier.ErrUninitRead) {
		t.Fatalf("err = %v", err)
	}
	// Duplicate names rejected.
	install(t, k, &isa.Program{Name: "p", Insns: isa.MustAssemble("movimm r0, 1\nexit")})
	_, _, err = k.InstallProgram(&isa.Program{Name: "p", Insns: isa.MustAssemble("movimm r0, 2\nexit")})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup err = %v", err)
	}
}

func TestRemoveProgram(t *testing.T) {
	k := newTestKernel(t, Config{})
	id := install(t, k, &isa.Program{Name: "p", Insns: isa.MustAssemble("movimm r0, 1\nexit")})
	if err := k.RemoveProgram(id); err != nil {
		t.Fatal(err)
	}
	if err := k.RemoveProgram(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
	if _, _, err := k.RunProgramByName("p", 0, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed program still runs: %v", err)
	}
}

func TestFireActions(t *testing.T) {
	k := newTestKernel(t, Config{})
	tb := table.New("t", "hook/x", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}

	// ActionParam.
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionParam, Param: 42}}); err != nil {
		t.Fatal(err)
	}
	res := k.Fire("hook/x", 1, 0, 0)
	if res.Matched != 1 || res.Verdict != 42 {
		t.Fatalf("param fire = %+v", res)
	}

	// ActionCollect appends arg2 to history.
	if err := tb.Insert(&table.Entry{Key: 2, Action: table.Action{Kind: table.ActionCollect}}); err != nil {
		t.Fatal(err)
	}
	k.Fire("hook/x", 2, 77, 0)
	buf := make([]int64, 4)
	if n := k.Ctx().Hist(2, buf); n != 1 || buf[0] != 77 {
		t.Fatalf("collect wrote %v (%d)", buf, n)
	}

	// ActionProgram with Param override in R3.
	pid := install(t, k, &isa.Program{Name: "r3", Insns: isa.MustAssemble("mov r0, r3\nexit")})
	if err := tb.Insert(&table.Entry{Key: 3, Action: table.Action{Kind: table.ActionProgram, ProgID: pid, Param: 9}}); err != nil {
		t.Fatal(err)
	}
	res = k.Fire("hook/x", 3, 0, 0)
	if res.Verdict != 9 {
		t.Fatalf("program param verdict = %d", res.Verdict)
	}

	// ActionInfer once history is long enough.
	modelID := k.RegisterModel(&FuncModel{
		Fn: func(x []int64) int64 {
			var s int64
			for _, v := range x {
				s += v
			}
			return s
		},
		Feats: 2, Ops: 2, Size: 8,
	})
	if err := tb.Insert(&table.Entry{Key: 4, Action: table.Action{Kind: table.ActionInfer, ModelID: modelID}}); err != nil {
		t.Fatal(err)
	}
	res = k.Fire("hook/x", 4, 0, 0)
	if res.Verdict != DefaultVerdict {
		t.Fatalf("infer without history should default, got %d", res.Verdict)
	}
	k.Ctx().HistPush(4, 10)
	k.Ctx().HistPush(4, 20)
	res = k.Fire("hook/x", 4, 0, 0)
	if res.Verdict != 30 {
		t.Fatalf("infer verdict = %d", res.Verdict)
	}
}

func TestFireNoDatapath(t *testing.T) {
	k := newTestKernel(t, Config{})
	res := k.Fire("missing/hook", 1, 2, 3)
	if res.Matched != 0 || res.Verdict != DefaultVerdict {
		t.Fatalf("res = %+v", res)
	}
}

func TestFireTrapFailsSoft(t *testing.T) {
	k := newTestKernel(t, Config{})
	tb := table.New("t", "hook/t", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	// Division by the (zero) R2 argument traps at runtime.
	pid := install(t, k, &isa.Program{
		Name:  "crash",
		Insns: isa.MustAssemble("movimm r0, 1\ndiv r0, r2\nexit"),
	})
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	res := k.Fire("hook/t", 1, 0, 0)
	if !res.Trapped || res.TrapErr == nil {
		t.Fatalf("trap not surfaced: %+v", res)
	}
	if res.Verdict != DefaultVerdict {
		t.Fatalf("trapped program influenced the verdict: %d", res.Verdict)
	}
}

func TestEmissionsAndRateLimit(t *testing.T) {
	k := newTestKernel(t, Config{RateLimit: 3})
	tb := table.New("t", "hook/e", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	// Emit five values; only three fit the budget.
	src := ""
	for i := 0; i < 5; i++ {
		src += "movimm r1, 10\naddimm r1, " + string(rune('0'+i)) + "\n"
		_ = src
	}
	prog := &isa.Program{
		Name: "emitter",
		Insns: isa.MustAssemble(`
        movimm r1, 100
        call 1
        movimm r1, 101
        call 1
        movimm r1, 102
        call 1
        movimm r1, 103
        call 1
        movimm r1, 104
        call 1
        movimm r0, 0
        exit`),
		Helpers: []int64{HelperEmit},
	}
	pid, report, err := k.InstallProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !report.NeedsRateLimit {
		t.Fatal("emitting program not flagged")
	}
	if err := tb.Insert(&table.Entry{Key: 1, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
		t.Fatal(err)
	}
	res := k.Fire("hook/e", 1, 0, 0)
	if len(res.Emissions) != 3 {
		t.Fatalf("emissions = %v, want 3 under rate limit", res.Emissions)
	}
	if res.RateLimited != 2 {
		t.Fatalf("rate limited = %d", res.RateLimited)
	}
	if res.Trapped {
		t.Fatal("rate limiting must not trap the program")
	}
	if res.Emissions[0] != 100 || res.Emissions[2] != 102 {
		t.Fatalf("emissions = %v", res.Emissions)
	}
}

func TestInterpJITModesAgree(t *testing.T) {
	progSrc := `
        veczero v0, 4
        movimm  r4, 3
        vecset  v0, 0, r4
        vecset  v0, 2, r1
        vecsum  r0, v0
        exit`
	run := func(mode ExecMode) int64 {
		k := newTestKernel(t, Config{Mode: mode})
		install(t, k, &isa.Program{Name: "v", Insns: isa.MustAssemble(progSrc)})
		got, _, err := k.RunProgramByName("v", 5, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if a, b := run(ModeJIT), run(ModeInterp); a != b || a != 8 {
		t.Fatalf("jit=%d interp=%d", a, b)
	}
}

func TestSetModeSwitchesEngine(t *testing.T) {
	k := newTestKernel(t, Config{Mode: ModeJIT})
	if k.Mode() != ModeJIT || k.Mode().String() != "jit" {
		t.Fatal("mode accessor")
	}
	k.SetMode(ModeInterp)
	if k.Mode() != ModeInterp || k.Mode().String() != "interp" {
		t.Fatal("mode switch")
	}
	install(t, k, &isa.Program{Name: "p", Insns: isa.MustAssemble("movimm r0, 5\nexit")})
	if got, _, err := k.RunProgramByName("p", 0, 0, 0); err != nil || got != 5 {
		t.Fatalf("interp run got %d err %v", got, err)
	}
}

func TestMatrixValidation(t *testing.T) {
	k := newTestKernel(t, Config{})
	if _, err := k.RegisterMatrix(&Matrix{In: 2, Out: 2, W: []int64{1}, B: []int64{0, 0}}); err == nil {
		t.Fatal("malformed matrix accepted")
	}
	id, err := k.RegisterMatrix(&Matrix{In: 2, Out: 1, W: []int64{1, 1}, B: []int64{0}})
	if err != nil || id == 0 {
		t.Fatalf("register: %v", err)
	}
}

func TestVecStaging(t *testing.T) {
	k := newTestKernel(t, Config{})
	id := k.RegisterVec([]int64{1, 2, 3})
	prog := &isa.Program{
		Name:  "stage",
		Insns: isa.MustAssemble("vecld v0, " + itoa(id) + "\nvecsum r0, v0\nexit"),
		Vecs:  []int64{id},
	}
	install(t, k, prog)
	got, _, err := k.RunProgramByName("stage", 0, 0, 0)
	if err != nil || got != 6 {
		t.Fatalf("got %d err %v", got, err)
	}
	if err := k.SetVec(id, []int64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	got, _, _ = k.RunProgramByName("stage", 0, 0, 0)
	if got != 60 {
		t.Fatalf("restaged got %d", got)
	}
	// Length change reallocates.
	if err := k.SetVec(id, []int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := k.SetVec(99, []int64{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing vec err = %v", err)
	}
}

func TestModelSwap(t *testing.T) {
	k := newTestKernel(t, Config{})
	id := k.RegisterModel(&FuncModel{Fn: func([]int64) int64 { return 1 }, Feats: 1, Ops: 1, Size: 8})
	prog := &isa.Program{
		Name:   "inf",
		Insns:  isa.MustAssemble("veczero v0, 1\nmlinfer r0, v0, " + itoa(id) + "\nexit"),
		Models: []int64{id},
	}
	install(t, k, prog)
	if got, _, _ := k.RunProgramByName("inf", 0, 0, 0); got != 1 {
		t.Fatalf("got %d", got)
	}
	if err := k.SwapModel(id, &FuncModel{Fn: func([]int64) int64 { return 2 }, Feats: 1, Ops: 1, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := k.RunProgramByName("inf", 0, 0, 0); got != 2 {
		t.Fatalf("after swap got %d", got)
	}
	if err := k.SwapModel(99, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("swap missing err = %v", err)
	}
}

func TestDuplicateTableName(t *testing.T) {
	k := newTestKernel(t, Config{})
	if _, err := k.CreateTable(table.New("t", "h", table.MatchExact)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateTable(table.New("t", "h2", table.MatchExact)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := k.TableByName("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if hooks := k.Hooks(); len(hooks) != 1 || hooks[0] != "h" {
		t.Fatalf("hooks = %v", hooks)
	}
}

func TestPrivacyHelpers(t *testing.T) {
	acct, err := dp.NewAccountant(0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := newTestKernel(t, Config{Privacy: acct, QueryEpsilon: 0.1, CtxFields: 2})
	k.Ctx().Store(1, 0, 100)
	k.Ctx().Store(2, 0, 200)
	prog := &isa.Program{
		Name: "agg",
		Insns: isa.MustAssemble(`
        movimm r1, 0          ; field 0
        movimm r2, 1          ; sensitivity
        call 2                ; rmt_ctx_sum (noised)
        exit`),
		Helpers: []int64{HelperCtxSum},
	}
	install(t, k, prog)
	// Two queries fit the 0.25 budget at eps 0.1.
	for i := 0; i < 2; i++ {
		got, _, err := k.RunProgramByName("agg", 0, 0, 0)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got < 100 || got > 500 {
			t.Fatalf("noised sum %d wildly off 300", got)
		}
	}
	// Third query exhausts the budget: the program traps (fails soft at the
	// datapath level).
	if _, _, err := k.RunProgramByName("agg", 0, 0, 0); err == nil {
		t.Fatal("over-budget query succeeded")
	}
	// Without a privacy accountant the helper errors.
	k2 := newTestKernel(t, Config{CtxFields: 2})
	install(t, k2, prog)
	if _, _, err := k2.RunProgramByName("agg", 0, 0, 0); err == nil {
		t.Fatal("no-accountant query succeeded")
	}
}

func TestClampAndHistLenHelpers(t *testing.T) {
	k := newTestKernel(t, Config{})
	prog := &isa.Program{
		Name: "clamp",
		Insns: isa.MustAssemble(`
        movimm r1, 500
        movimm r2, 100
        call 4                ; clamp(500, 100) = 100
        exit`),
		Helpers: []int64{HelperClampDelta},
	}
	install(t, k, prog)
	if got, _, _ := k.RunProgramByName("clamp", 0, 0, 0); got != 100 {
		t.Fatalf("clamp got %d", got)
	}
	k.Ctx().HistPush(7, 1)
	k.Ctx().HistPush(7, 2)
	prog2 := &isa.Program{
		Name:    "hl",
		Insns:   isa.MustAssemble("call 5\nexit"),
		Helpers: []int64{HelperHistLen},
	}
	install(t, k, prog2)
	if got, _, _ := k.RunProgramByName("hl", 7, 0, 0); got != 2 {
		t.Fatalf("histlen got %d", got)
	}
}

func TestTailCallThroughKernel(t *testing.T) {
	k := newTestKernel(t, Config{})
	calleeID := install(t, k, &isa.Program{
		Name:  "callee",
		Insns: isa.MustAssemble("mov r0, r1\naddimm r0, 1000\nexit"),
	})
	install(t, k, &isa.Program{
		Name:  "caller",
		Insns: isa.MustAssemble("tailcall " + itoa(calleeID)),
		Tails: []int64{calleeID},
	})
	got, _, err := k.RunProgramByName("caller", 7, 0, 0)
	if err != nil || got != 1007 {
		t.Fatalf("got %d err %v", got, err)
	}
}

// TestRemovedTailTargetTraps is the regression test for the JIT's stale tail
// binding: it compiled tail targets at install time and kept running a callee
// the control plane had since removed, where the interpreter — resolving the
// target per run — trapped. Every engine mode must now trap identically
// (ModeAOT lands on the JIT: the emitter declines tail programs).
func TestRemovedTailTargetTraps(t *testing.T) {
	var traps []string
	for _, mode := range []ExecMode{ModeInterp, ModeJIT, ModeAOT} {
		k := newTestKernel(t, Config{Mode: mode})
		calleeID := install(t, k, &isa.Program{
			Name:  "callee",
			Insns: isa.MustAssemble("mov r0, r1\naddimm r0, 1000\nexit"),
		})
		install(t, k, &isa.Program{
			Name:  "caller",
			Insns: isa.MustAssemble("tailcall " + itoa(calleeID)),
			Tails: []int64{calleeID},
		})
		if got, _, err := k.RunProgramByName("caller", 7, 0, 0); err != nil || got != 1007 {
			t.Fatalf("%s: callee installed: got %d err %v, want 1007", mode, got, err)
		}
		if err := k.RemoveProgram(calleeID); err != nil {
			t.Fatal(err)
		}
		got, _, err := k.RunProgramByName("caller", 7, 0, 0)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: callee removed: got %d err %v, want an ErrNotFound trap", mode, got, err)
		}
		traps = append(traps, err.Error())
	}
	if traps[1] != traps[0] || traps[2] != traps[0] {
		t.Errorf("traps differ across modes: interp %q, jit %q, aot %q", traps[0], traps[1], traps[2])
	}
}

func TestConcurrentFire(t *testing.T) {
	k := newTestKernel(t, Config{})
	tb := table.New("t", "hook/c", table.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	pid := install(t, k, &isa.Program{
		Name: "work",
		Insns: isa.MustAssemble(`
        mov r0, r1
        mulimm r0, 3
        histpush r1, r0
        exit`),
	})
	for key := uint64(0); key < 8; key++ {
		if err := tb.Insert(&table.Entry{Key: key, Action: table.Action{Kind: table.ActionProgram, ProgID: pid}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				res := k.Fire("hook/c", g, 0, 0)
				if res.Verdict != g*3 {
					t.Errorf("key %d verdict %d", g, res.Verdict)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestCompiledQMLPMatchesNative: the bytecode MatMul/Relu/Quant/Clamp/ArgMax
// pipeline must reproduce QMLP.Predict exactly, in both execution modes.
func TestCompiledQMLPMatchesNative(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var Xf [][]float64
	var y []int
	for i := 0; i < 500; i++ {
		a, b, c := rng.Float64()*50, rng.Float64()*50, rng.Float64()*50
		label := 0
		if a+b > c*2 {
			label = 1
		}
		Xf = append(Xf, []float64{a, b, c})
		y = append(y, label)
	}
	net, err := mlp.New([]int{3, 8, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.TrainStandardized(Xf, y, mlp.TrainConfig{Epochs: 30, LR: 0.05, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	q, err := mlp.Quantize(net, Xf, mlp.QuantizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{ModeJIT, ModeInterp} {
		k := newTestKernel(t, Config{Mode: mode})
		matIDs, _, err := k.RegisterQMLP(q)
		if err != nil {
			t.Fatal(err)
		}
		vecID := k.RegisterVec(make([]int64, 3))
		prog := q.BuildProgram("qmlp", "h", vecID, matIDs[0])
		install(t, k, prog)
		for trial := 0; trial < 300; trial++ {
			x := []int64{rng.Int63n(100) - 20, rng.Int63n(100) - 20, rng.Int63n(100) - 20}
			if err := k.SetVec(vecID, x); err != nil {
				t.Fatal(err)
			}
			got, _, err := k.RunProgramByName("qmlp", 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(q.Predict(x)); got != want {
				t.Fatalf("mode %s x=%v: bytecode %d != native %d", mode, x, got, want)
			}
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		b = append([]byte{'-'}, b...)
	}
	return string(b)
}

// TestOptimizeOnAdmission: admission, on by default, attaches the
// verifier's facts to the admitted program, so the branch the constant
// product decides folds on the compiled tiers and costs nothing in the
// certified bound.
func TestOptimizeOnAdmission(t *testing.T) {
	src := `
        movimm r1, 6
        movimm r2, 7
        mov    r0, r1
        mul    r0, r2
        jgti   r0, 100, big
        exit
big:    movimm r0, 100
        exit`
	k := newTestKernel(t, Config{})
	id := install(t, k, &isa.Program{Name: "p", Insns: isa.MustAssemble(src)})
	got, _, err := k.RunProgramByName("p", 0, 0, 0)
	if err != nil || got != 42 {
		t.Fatalf("got %d err %v, want 42", got, err)
	}
	a := k.progs[id].prog
	if a.Facts == nil || a.Facts.Branches[4] != isa.BranchNeverTaken {
		t.Fatalf("admitted program does not carry the decided branch: %+v", a.Facts)
	}
	if a.StaticSteps != 6 {
		t.Fatalf("StaticSteps %d; want 6 (the dead arm excluded)", a.StaticSteps)
	}
	lp, err := lower.Lower(a)
	if err != nil {
		t.Fatal(err)
	}
	if lp.FoldedBranches != 1 || lp.DeadInsns != 2 {
		t.Fatalf("admitted program lowers with %d folded branches and %d dead insns, want 1, 2", lp.FoldedBranches, lp.DeadInsns)
	}
}
