// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the ablations indexed in DESIGN.md. Rows are emitted as
// custom benchmark metrics (accuracy_pct, coverage_pct, jct_s, ...) so
// `go test -bench=. -benchmem` regenerates every number EXPERIMENTS.md
// records; cmd/rmtbench prints the same rows in table form.
package rmtk_test

import (
	"strconv"
	"testing"

	"rmtk"
	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/dp"
	"rmtk/internal/experiments"
	"rmtk/internal/isa"
	"rmtk/internal/memsim"
	"rmtk/internal/ml/dt"
	"rmtk/internal/ml/mlp"
	"rmtk/internal/ml/svm"
	"rmtk/internal/rmtprefetch"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
	"rmtk/internal/vm"
)

// --- Table 1: page prefetching ------------------------------------------

func benchTable1(b *testing.B, trace []memsim.Access, cfg memsim.Config) {
	policies, err := experiments.Table1Policies(core.ModeJIT)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.Name(), func(b *testing.B) {
			var last memsim.Result
			for i := 0; i < b.N; i++ {
				// Fresh policy state per iteration, except the first
				// pre-built one (policies carry learned state).
				p := pol
				if i > 0 {
					ps, err := experiments.Table1Policies(core.ModeJIT)
					if err != nil {
						b.Fatal(err)
					}
					for _, cand := range ps {
						if cand.Name() == pol.Name() {
							p = cand
						}
					}
				}
				last = memsim.Run(cfg, p, trace)
			}
			b.ReportMetric(100*last.Accuracy(), "accuracy_pct")
			b.ReportMetric(100*last.Coverage(), "coverage_pct")
			b.ReportMetric(last.CompletionSeconds(), "jct_s")
		})
	}
}

// BenchmarkTable1VideoResize regenerates the video-resize column of Table 1.
func BenchmarkTable1VideoResize(b *testing.B) {
	benchTable1(b, experiments.VideoTrace(1), experiments.VideoMemConfig())
}

// BenchmarkTable1MatrixConv regenerates the matrix-convolution column of
// Table 1.
func BenchmarkTable1MatrixConv(b *testing.B) {
	benchTable1(b, experiments.ConvTrace(1), experiments.ConvMemConfig())
}

// --- Table 2: CFS migration mimicry --------------------------------------

// BenchmarkTable2Scheduler regenerates Table 2: per benchmark, the full
// collect → train → quantize → admit → re-run pipeline; accuracy and JCT
// deltas are reported as metrics.
func BenchmarkTable2Scheduler(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(1, core.ModeJIT)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		r := r
		b.Run(r.Workload, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = r // table assembled above; sub-bench reports its row
			}
			b.ReportMetric(r.FullAcc, "full_acc_pct")
			b.ReportMetric(r.LeanAcc, "lean_acc_pct")
			b.ReportMetric(r.CFSSec, "cfs_jct_s")
			b.ReportMetric(r.FullSec, "full_jct_s")
			b.ReportMetric(r.LeanSec, "lean_jct_s")
		})
	}
}

// --- Ablation A: interpreter vs JIT --------------------------------------

// benchEngineFire measures one datapath Fire of the per-process prefetch
// program (collect hook + inference hook) under the given execution mode.
func benchEngineFire(b *testing.B, mode core.ExecMode) {
	k := core.NewKernel(core.Config{CtxHistory: 4096, Mode: mode})
	plane := ctrl.New(k)
	p, err := rmtprefetch.New(k, plane, rmtprefetch.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: teach the model a stride so inference runs the full rollout.
	page := int64(0)
	for i := 0; i < 1024; i++ {
		page += 5
		p.OnAccess(56, page, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page += 5
		k.Fire(memsim.HookLookupSwapCache, 56, page, 0)
		k.Fire(memsim.HookSwapClusterReadahead, 56, page, 0)
	}
}

// BenchmarkVMInterpreter measures interpreted datapath dispatch (§3.1
// "interpreted mode").
func BenchmarkVMInterpreter(b *testing.B) { benchEngineFire(b, core.ModeInterp) }

// BenchmarkVMJIT measures JIT-compiled datapath dispatch.
func BenchmarkVMJIT(b *testing.B) { benchEngineFire(b, core.ModeJIT) }

// BenchmarkVMRawDispatch isolates the engines on a fixed scalar program
// without kernel dispatch overhead.
func BenchmarkVMRawDispatch(b *testing.B) {
	prog := &isa.Program{Name: "alu", Insns: isa.MustAssemble(`
        mov r4, r1
        mulimm r4, 3
        addimm r4, -7
        jgti r4, 100, big
        mov r0, r4
        exit
big:    movimm r0, 100
        exit`)}
	env := nopEnv{}
	ip, err := vm.NewInterpreter(prog)
	if err != nil {
		b.Fatal(err)
	}
	jit, err := vm.Compile(env, prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []vm.Engine{ip, jit} {
		eng := eng
		b.Run(eng.Name(), func(b *testing.B) {
			st := vm.NewState()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(env, st, int64(i), 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation A2: proof-carrying check elision ----------------------------

// proofBenchPrograms builds a check-heavy verified program twice: once bare
// (every runtime check executes) and once carrying the verifier's proof
// artifacts (proven checks elided, static step bound reserved up front). The
// program models a fire path that shells out to contracted helpers — the
// shape where admission-time proofs pay: every call site's argument
// contract is discharged statically, and the stack/division epilogue
// exercises the bounds and nonzero proofs. No vector ops, so iterations
// are allocation-free and the measurement is not polluted by GC.
func proofBenchPrograms(b testing.TB) (checked, elided *isa.Program) {
	b.Helper()
	prog := &isa.Program{Name: "checks", Helpers: []int64{1, 2, 3, 4}, Insns: isa.MustAssemble(`
        movimm  r1, 9
        movimm  r2, 12
        movimm  r3, 33
        movimm  r4, 4
        movimm  r5, 7
        call    1
        call    2
        call    3
        call    4
        call    1
        call    2
        call    3
        call    4
        call    1
        call    2
        call    3
        call    4
        call    1
        call    2
        call    3
        call    4
        ststack [0], r5
        ststack [1], r3
        ldstack r6, [0]
        ldstack r7, [1]
        div     r7, r6
        mod     r7, r5
        jgti    r7, 0, pos
        movimm  r7, 1
pos:    div     r2, r7
        mov     r0, r2
        exit`)}
	arg := isa.Range(0, 100)
	spec := verifier.HelperSpec{Name: "nop", Cost: 1, Args: []isa.Interval{arg, arg, arg, arg, arg}}
	rep, err := verifier.Verify(prog, verifier.Config{
		Helpers: map[int64]verifier.HelperSpec{1: spec, 2: spec, 3: spec, 4: spec},
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.ElidedChecks == 0 {
		b.Fatal("benchmark program discharged no checks; it measures nothing")
	}
	// Both variants carry the helper contracts (runtime enforcement is part
	// of admitted semantics); only the elided variant carries the proofs
	// that let the engines skip the enforced-at-runtime checks.
	checked = prog.Clone()
	checked.HelperContracts = rep.HelperContracts
	elided = prog.Clone()
	elided.Proofs = rep.Proofs
	elided.HelperContracts = rep.HelperContracts
	elided.StaticSteps = rep.MaxSteps
	return checked, elided
}

func benchProofProgram(b *testing.B, jit bool, pick func(checked, elided *isa.Program) *isa.Program) {
	checked, elided := proofBenchPrograms(b)
	prog := pick(checked, elided)
	env := nopEnv{}
	var (
		eng vm.Engine
		err error
	)
	if jit {
		eng, err = vm.Compile(env, prog)
	} else {
		eng, err = vm.NewInterpreter(prog)
	}
	if err != nil {
		b.Fatal(err)
	}
	st := vm.NewState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(env, st, int64(i), 3, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpChecked runs the interpreter with every runtime check.
func BenchmarkInterpChecked(b *testing.B) {
	benchProofProgram(b, false, func(c, _ *isa.Program) *isa.Program { return c })
}

// BenchmarkInterpElided runs the interpreter with proven checks elided.
func BenchmarkInterpElided(b *testing.B) {
	benchProofProgram(b, false, func(_, e *isa.Program) *isa.Program { return e })
}

// BenchmarkJITChecked runs the JIT closure chain with every runtime check.
func BenchmarkJITChecked(b *testing.B) {
	benchProofProgram(b, true, func(c, _ *isa.Program) *isa.Program { return c })
}

// BenchmarkJITElided runs the JIT closure chain with proven checks elided.
func BenchmarkJITElided(b *testing.B) {
	benchProofProgram(b, true, func(_, e *isa.Program) *isa.Program { return e })
}

// --- Ablation B: inference cost on the critical path ---------------------

func inferenceFixtures(b *testing.B) (tree *dt.Tree, machine *svm.SVM, fnet *mlp.MLP, qnet *mlp.QMLP, xi []int64, xf []float64) {
	b.Helper()
	var (
		Xi [][]int64
		Xf [][]float64
		yi []int64
		yf []int
	)
	for i := 0; i < 512; i++ {
		a, c := int64(i%64), int64((i*7)%64)
		label := 0
		if a > c {
			label = 1
		}
		Xi = append(Xi, []int64{a, c, a + c, a - c, a * 2, c * 2, a % 8, c % 8})
		row := make([]float64, 8)
		for j, v := range Xi[i] {
			row[j] = float64(v)
		}
		Xf = append(Xf, row)
		yi = append(yi, int64(label))
		yf = append(yf, label)
	}
	tree, err := dt.Train(Xi, yi, dt.Config{MaxDepth: 12})
	if err != nil {
		b.Fatal(err)
	}
	machine, err = svm.Train(Xi, yf, 2, svm.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fnet, err = mlp.New([]int{8, 16, 2}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := fnet.TrainStandardized(Xf, yf, mlp.TrainConfig{Epochs: 10, LR: 0.05, Seed: 2}); err != nil {
		b.Fatal(err)
	}
	qnet, err = mlp.Quantize(fnet, Xf, mlp.QuantizeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return tree, machine, fnet, qnet, Xi[0], Xf[0]
}

// BenchmarkInferenceDecisionTree: integer decision tree, the paper's
// in-kernel prefetch model.
func BenchmarkInferenceDecisionTree(b *testing.B) {
	tree, _, _, _, xi, _ := inferenceFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tree.Predict(xi)
	}
}

// BenchmarkInferenceIntegerSVM: integer linear SVM.
func BenchmarkInferenceIntegerSVM(b *testing.B) {
	_, machine, _, _, xi, _ := inferenceFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = machine.Predict(xi)
	}
}

// BenchmarkInferenceQuantizedMLP: integer-only quantized MLP (the kernel
// deployment format).
func BenchmarkInferenceQuantizedMLP(b *testing.B) {
	_, _, _, qnet, xi, _ := inferenceFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = qnet.Predict(xi)
	}
}

// BenchmarkInferenceFloatMLP: the float network (what the kernel would have
// to run without quantization; needs the FPU).
func BenchmarkInferenceFloatMLP(b *testing.B) {
	_, _, fnet, _, _, xf := inferenceFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fnet.Predict(xf)
	}
}

// BenchmarkInferenceBytecodeMLP: the quantized MLP compiled to the RMT ML
// ISA and executed by the in-kernel VM, per execution mode.
func BenchmarkInferenceBytecodeMLP(b *testing.B) {
	_, _, _, qnet, xi, _ := inferenceFixtures(b)
	for _, mode := range []core.ExecMode{core.ModeJIT, core.ModeInterp} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			k := core.NewKernel(core.Config{Mode: mode})
			matIDs, _, err := k.RegisterQMLP(qnet)
			if err != nil {
				b.Fatal(err)
			}
			vecID := k.RegisterVec(xi)
			prog := qnet.BuildProgram("q", "h", vecID, matIDs[0])
			if _, _, err := k.InstallProgram(prog); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := k.RunProgramByName("q", 0, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation C: verifier admission cost ---------------------------------

// BenchmarkVerifier measures full admission (verify + dual compile) of the
// unrolled prefetch program.
func BenchmarkVerifier(b *testing.B) {
	src := rmtprefetch.PrefetchProgramSource(1, 8, 12, 1<<17)
	insns := isa.MustAssemble(src)
	for i := 0; i < b.N; i++ {
		k := core.NewKernel(core.Config{})
		modelID := k.RegisterModel(&core.FuncModel{Fn: func([]int64) int64 { return 0 }, Feats: 8, Ops: 12, Size: 256})
		prog := &isa.Program{
			Name:    "p",
			Insns:   insns,
			Helpers: []int64{core.HelperEmit, core.HelperHistLen},
			Models:  []int64{modelID},
		}
		if _, _, err := k.InstallProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation D: online adaptation under workload shift ------------------

// BenchmarkOnlineAdaptation reports the accuracy gap between continuous
// retraining and a frozen model across a pattern shift.
func BenchmarkOnlineAdaptation(b *testing.B) {
	var res experiments.AdaptationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.OnlineAdaptation(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OnlineAccuracy, "online_acc_pct")
	b.ReportMetric(res.FrozenAccuracy, "frozen_acc_pct")
	b.ReportMetric(float64(res.MonitorDegrades), "monitor_degrades")
}

// --- Ablation E: differential-privacy query cost -------------------------

// BenchmarkDPQuery measures one noised aggregate query.
func BenchmarkDPQuery(b *testing.B) {
	acct, err := dp.NewAccountant(1e12, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acct.QueryCount(1000, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks: datapath primitives --------------------------------

// BenchmarkTableLookup measures match disciplines at 1k entries.
func BenchmarkTableLookup(b *testing.B) {
	kinds := []struct {
		name string
		kind table.MatchKind
	}{
		{"exact", table.MatchExact},
		{"prefix", table.MatchPrefix},
		{"ternary", table.MatchTernary},
	}
	for _, k := range kinds {
		k := k
		b.Run(k.name, func(b *testing.B) {
			tb := table.New("t", "h", k.kind)
			for i := uint64(0); i < 1024; i++ {
				mask := ^uint64(0) - (1<<20 - 1) // care about all but the low 20 bits
				e := &table.Entry{Key: i << 20, PrefixLen: 44, Mask: mask, Priority: int32(i)}
				if err := tb.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Lookup(uint64(i%1024) << 20)
			}
		})
	}
}

// BenchmarkTableInsert measures one insert into an exact table of 256 or
// 4096 entries, paired with the delete of its oldest key so the size stays
// fixed. A single-key edit stores into the index in place, so the two sizes
// cost about the same; a table that copied its entries per edit would scale
// with the size.
func BenchmarkTableInsert(b *testing.B) {
	for _, size := range []int{256, 4096} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			tb := table.New("t", "h", table.MatchExact)
			for i := 0; i < size; i++ {
				if err := tb.Insert(&table.Entry{Key: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			var oldest table.Entry
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.Insert(&table.Entry{Key: uint64(size + i)}); err != nil {
					b.Fatal(err)
				}
				oldest.Key = uint64(i)
				tb.Delete(&oldest)
			}
		})
	}
}

// BenchmarkFireDispatch measures a full hook dispatch with one matching
// ActionParam entry — the minimum datapath overhead per kernel event.
func BenchmarkFireDispatch(b *testing.B) {
	k := rmtk.New(rmtk.Config{})
	tb := rmtk.NewTable("t", "h", rmtk.MatchExact)
	if _, err := k.CreateTable(tb); err != nil {
		b.Fatal(err)
	}
	if err := tb.Insert(&rmtk.Entry{Key: 1, Action: rmtk.Action{Kind: rmtk.ActionParam, Param: 1}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Fire("h", 1, 0, 0)
	}
}

// BenchmarkCtxHistPush measures the execution-context collection path.
func BenchmarkCtxHistPush(b *testing.B) {
	k := rmtk.New(rmtk.Config{CtxHistory: 4096})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Ctx().HistPush(56, int64(i))
	}
}

// nopEnv is an Env that provides nothing (pure ALU benchmarks).
type nopEnv struct{}

func (nopEnv) CtxLoad(key, field int64) int64                   { return 0 }
func (nopEnv) CtxStore(key, field, val int64)                   {}
func (nopEnv) CtxHistPush(key, val int64)                       {}
func (nopEnv) CtxHist(key int64, dst []int64) int               { return 0 }
func (nopEnv) Match(table, key int64) int64                     { return -1 }
func (nopEnv) Call(helper int64, args *[5]int64) (int64, error) { return 0, nil }
func (nopEnv) MatVec(id int64, in, out []int64) (int, error)    { return 0, nil }
func (nopEnv) Infer(model int64, f []int64) (int64, error)      { return 0, nil }
func (nopEnv) VecLoad(id int64, dst []int64) (int, error)       { return 0, nil }
func (nopEnv) VecStore(id int64, src []int64) error             { return nil }
func (nopEnv) TailProgram(id int64) (*isa.Program, error)       { return nil, nil }

// --- Extension F: learned block-IO submit path ---------------------------

// BenchmarkIOTailLatency regenerates the tail-latency comparison of the
// LinnOS-style learned submit path against always-primary, hedging and
// shortest-queue routing.
func BenchmarkIOTailLatency(b *testing.B) {
	var rows []experiments.IOTailRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.IOTail(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		r := r
		b.Run(r.Policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = r
			}
			b.ReportMetric(r.MeanUs, "mean_us")
			b.ReportMetric(r.P99Us, "p99_us")
			b.ReportMetric(float64(r.SlowServe), "slow_ios")
			b.ReportMetric(float64(r.ExtraIOs), "extra_ios")
		})
	}
}

// --- Extension G: learned elephant-flow isolation ------------------------

// BenchmarkNetIsolation regenerates the RX-path flow-isolation comparison.
func BenchmarkNetIsolation(b *testing.B) {
	var rows []experiments.NetRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.NetIsolation(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		r := r
		b.Run(r.Policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = r
			}
			b.ReportMetric(r.MiceP99Us, "mice_p99_us")
			b.ReportMetric(r.MiceMeanUs, "mice_mean_us")
			b.ReportMetric(float64(r.Misrouted), "misrouted_pkts")
		})
	}
}
