package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"rmtk/internal/aot"
	"rmtk/internal/core"
	"rmtk/internal/experiments"
	"rmtk/internal/isa"
	"rmtk/internal/ml/dt"
	"rmtk/internal/qos"
	"rmtk/internal/table"
	"rmtk/internal/telemetry"
	"rmtk/internal/verifier"
	"rmtk/internal/vm"
	"rmtk/internal/wal"
)

// This file measures the layers that are only reachable inside Fire, from
// outside, two ways: ledger arms (fresh kernels built through the public API
// with one layer added to a base arm; delta = arm − base) and isolated calls
// to each layer's exported functions on the same inputs. Neither depends on
// the workload, so every traced run reports them.

const (
	ledgerSegments   = 30  // interleaved rounds over all arms
	ledgerSegBatches = 256 // batches per arm per round (16 384 fires)
	isolateReps      = 7
	ledgerTenant     = "bench"
)

// sink keeps the compiler from discarding measured calls.
var sink int64

// ledgerArm is one kernel configuration of the cost ledger.
type ledgerArm struct {
	name string
	// fire issues batch b (fireBatch fires).
	fire func(b int64)
}

// batchArm fires FireBatch over the generated flow set on k; novel replaces
// arg3 with a never-repeating counter so a verdict cache can only miss.
func batchArm(name string, k *core.Kernel, flows []flow, novel bool) ledgerArm {
	events := make([]core.Event, fireBatch)
	out := make([]core.FireResult, fireBatch)
	return ledgerArm{name: name, fire: func(b int64) {
		fillBatch(events, flows, b, experiments.HotPathHook, novel)
		k.FireBatch(events, out)
		sink += out[0].Verdict
	}}
}

// ledgerArms builds every arm. The base arm is aot: AOT engine, verdict
// cache off, nothing attached.
func ledgerArms(flows []flow) ([]ledgerArm, error) {
	var arms []ledgerArm
	hot := func(name string, mode core.ExecMode, cached, novel bool, attach func(*core.Kernel)) error {
		k, err := experiments.NewHotPathKernel(mode, cached)
		if err != nil {
			return err
		}
		if attach != nil {
			attach(k)
		}
		arms = append(arms, batchArm(name, k, flows, novel))
		return nil
	}

	// no_table: the hook has nothing attached — route load, hook resolve and
	// the batch loop itself.
	arms = append(arms, batchArm("no_table", core.NewKernel(core.Config{Mode: core.ModeAOT, DisableVerdictCache: true}), flows, false))

	// param: table match and the slow path's bookkeeping, no engine.
	pk := core.NewKernel(core.Config{Mode: core.ModeAOT, DisableVerdictCache: true})
	pt := table.New("param_tab", experiments.HotPathHook, table.MatchExact)
	if _, err := pk.CreateTable(pt); err != nil {
		return nil, err
	}
	for key := int64(0); key < experiments.HotPathKeys; key++ {
		if err := pt.Insert(&table.Entry{Key: uint64(key), Action: table.Action{Kind: table.ActionParam, Param: key + 1}}); err != nil {
			return nil, err
		}
	}
	arms = append(arms, batchArm("param", pk, flows, false))

	for _, a := range []struct {
		name          string
		mode          core.ExecMode
		cached, novel bool
		attach        func(*core.Kernel)
	}{
		{"interp", core.ModeInterp, false, false, nil},
		{"jit", core.ModeJIT, false, false, nil},
		{"aot", core.ModeAOT, false, false, nil},
		{"cache_hit", core.ModeAOT, true, false, nil},
		{"cache_miss", core.ModeAOT, true, true, nil},
		{"supervisor", core.ModeAOT, false, false, func(k *core.Kernel) { k.Supervise(core.SupervisorConfig{}) }},
		{"sentinel", core.ModeAOT, false, false, func(k *core.Kernel) { k.AttachSentinel(core.SentinelConfig{SampleEvery: 64}) }},
		{"full", core.ModeAOT, true, true, attachFullStack},
	} {
		if err := hot(a.name, a.mode, a.cached, a.novel, a.attach); err != nil {
			return nil, err
		}
	}

	ta, err := tenantArm(flows)
	if err != nil {
		return nil, err
	}
	return append(arms, ta), nil
}

// tenantArm fires the fixture through a named tenant with an admission
// controller attached, on a virtual clock and well under quota: namespace
// resolution, the per-tenant snapshot and one token-bucket verdict per fire.
// FireTenant has no batch form, so the arm issues fireBatch single fires.
func tenantArm(flows []flow) (ledgerArm, error) {
	k := core.NewKernel(core.Config{Mode: core.ModeAOT, DisableVerdictCache: true})
	if err := k.RegisterTenant(ledgerTenant, core.TenantQuota{
		Class: qos.Guaranteed, RatePerSec: 1 << 30, Burst: 1 << 20, Weight: 1,
	}); err != nil {
		return ledgerArm{}, err
	}
	m, err := fixtureMatrix()
	if err != nil {
		return ledgerArm{}, err
	}
	if _, err := k.RegisterMatrix(m); err != nil {
		return ledgerArm{}, err
	}
	hook := core.TenantName(ledgerTenant, experiments.HotPathHook)
	prog, err := hotProgram(core.TenantName(ledgerTenant, "shardscale_pure"), hook, hotMatrixID, 0)
	if err != nil {
		return ledgerArm{}, err
	}
	id, _, err := k.InstallProgram(prog)
	if err != nil {
		return ledgerArm{}, err
	}
	t := table.New(core.TenantName(ledgerTenant, "shardscale_tab"), hook, table.MatchExact)
	if _, err := k.CreateTable(t); err != nil {
		return ledgerArm{}, err
	}
	for key := int64(0); key < experiments.HotPathKeys; key++ {
		if err := t.Insert(programEntry(key, id)); err != nil {
			return ledgerArm{}, err
		}
	}
	var now int64
	k.SetAdmission(qos.NewController(qos.Config{CapacityPerSec: 1 << 30, WindowNs: 1_000_000}, 0), func() int64 { return now })
	events := make([]core.Event, fireBatch)
	return ledgerArm{name: "tenant_admit", fire: func(b int64) {
		fillBatch(events, flows, b, experiments.HotPathHook, false)
		for j := range events {
			ev := &events[j]
			now += 1000
			r, _ := k.FireTenant(ledgerTenant, ev.Hook, ev.Key, ev.Arg2, ev.Arg3)
			sink += r.Verdict
		}
	}}, nil
}

// fixtureMatrix reads the shardscale fixture's matrix back from a scratch
// kernel, so no second copy of its numbers exists.
func fixtureMatrix() (*core.Matrix, error) {
	k, err := experiments.NewHotPathKernel(core.ModeAOT, false)
	if err != nil {
		return nil, err
	}
	m, err := k.Matrix(hotMatrixID)
	if err != nil {
		return nil, err
	}
	return &core.Matrix{In: m.In, Out: m.Out, W: append([]int64(nil), m.W...), B: append([]int64(nil), m.B...)}, nil
}

// runLedger measures every arm in interleaved rounds — this machine drifts by
// tens of percent over seconds, and an arm measured wholly before another
// would carry that drift into their difference — and reports each arm's fast
// decile in ns per fire.
func runLedger(cfg runConfig, flows []flow) (map[string]float64, error) {
	arms, err := ledgerArms(flows)
	if err != nil {
		return nil, err
	}
	batches := int64(cfg.scaled(ledgerSegBatches))
	next := make([]int64, len(arms))
	for i, a := range arms { // warm JIT, pools, caches
		for ; next[i] < batches; next[i]++ {
			a.fire(next[i])
		}
	}
	per := make([][]float64, len(arms))
	for s := 0; s < cfg.scaled(ledgerSegments); s++ {
		for i, a := range arms {
			t0 := time.Now()
			for end := next[i] + batches; next[i] < end; next[i]++ {
				a.fire(next[i])
			}
			per[i] = append(per[i], float64(time.Since(t0))/float64(batches*fireBatch))
		}
	}
	out := make(map[string]float64, len(arms))
	for i, a := range arms {
		out[a.name] = fastDecile(per[i], false)
	}
	return out, nil
}

// ledgerMetrics turns per-arm costs into the ledger's metrics. The residual
// compares the full arm (AOT, cache on with never-repeating flows, supervisor,
// sentinel) with base + the deltas of exactly those layers.
func ledgerMetrics(res *result, ns map[string]float64) {
	base := ns["aot"]
	for _, a := range []string{"no_table", "param", "interp", "jit", "aot", "full"} {
		res.setLayer("core.ledger."+a+"_ns", ns[a])
	}
	for _, a := range []string{"cache_hit", "cache_miss", "supervisor", "sentinel", "tenant_admit"} {
		res.setLayer("core.delta."+a+"_ns", ns[a]-base)
	}
	sum := base + (ns["cache_miss"] - base) + (ns["supervisor"] - base) + (ns["sentinel"] - base)
	diff := ns["full"] - sum
	if diff < 0 {
		diff = -diff
	}
	res.setLayer("core.ledger.residual_pct", 100*diff/ns["full"])
}

// isolate times run (which performs and returns n operations) isolateReps
// times and returns the fastest repetition's ns per operation.
func isolate(run func() int) float64 {
	xs := make([]float64, 0, isolateReps)
	for i := 0; i < isolateReps; i++ {
		t0 := time.Now()
		n := run()
		xs = append(xs, float64(time.Since(t0))/float64(n))
	}
	return fastDecile(xs, false)
}

// benchEnv is the bench-local vm.Env of the isolated engine runs: the fixture
// program only ever calls MatVec, so everything else is inert.
type benchEnv struct{ m *core.Matrix }

func (e *benchEnv) CtxLoad(key, field int64) int64                   { return 0 }
func (e *benchEnv) CtxStore(key, field, val int64)                   {}
func (e *benchEnv) CtxHistPush(key, val int64)                       {}
func (e *benchEnv) CtxHist(key int64, dst []int64) int               { return 0 }
func (e *benchEnv) Match(table, key int64) int64                     { return -1 }
func (e *benchEnv) Call(helper int64, args *[5]int64) (int64, error) { return 0, nil }
func (e *benchEnv) MatOutLen(id int64) (int, error)                  { return e.m.Out, nil }
func (e *benchEnv) Infer(model int64, features []int64) (int64, error) {
	return 0, nil
}
func (e *benchEnv) VecLoad(id int64, dst []int64) (int, error) { return 0, nil }
func (e *benchEnv) VecStore(id int64, src []int64) error       { return nil }
func (e *benchEnv) TailProgram(id int64) (*isa.Program, error) {
	return nil, fmt.Errorf("bench: no tail programs")
}

func (e *benchEnv) MatVec(id int64, in []int64, out []int64) (int, error) {
	m := e.m
	for o := 0; o < m.Out; o++ {
		sum := m.B[o]
		for i, x := range in {
			sum += m.W[o*m.In+i] * x
		}
		out[o] = sum
	}
	return m.Out, nil
}

var _ vm.Env = (*benchEnv)(nil)

// isolatedCalls measures each layer's exported functions on their own.
func isolatedCalls(cfg runConfig, res *result, flows []flow) error {
	n := cfg.scaled(200_000)
	nf := int64(len(flows))

	k, err := experiments.NewHotPathKernel(core.ModeAOT, false)
	if err != nil {
		return err
	}
	sup := k.Supervise(core.SupervisorConfig{})
	progID, err := k.ProgramID("shardscale_pure")
	if err != nil {
		return err
	}

	// core: the supervisor's two hot-path calls.
	res.setLayer("core.supervisor_allow_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			sink += int64(sup.Allow(progID))
		}
		return n
	}))
	res.setLayer("core.supervisor_record_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			sup.RecordRun(progID, experiments.HotPathHook, 8, 0, nil)
		}
		return n
	}))

	// table: exact lookup, flow cache, context-store history.
	tab, _, err := k.TableByName("shardscale_tab")
	if err != nil {
		return err
	}
	res.setLayer("table.lookup_exact_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			if e := tab.Lookup(uint64(flows[int64(i)%nf].key)); e != nil {
				sink++
			}
		}
		return n
	}))
	fc := table.NewFlowCache[int64](32, 4096)
	fkey := func(f flow) table.FlowKey {
		return table.FlowKey{Hook: 1, Key: uint64(f.key), Arg2: f.arg2, Arg3: f.arg3}
	}
	for _, f := range flows {
		fc.Put(fkey(f), 1, f.key)
	}
	res.setLayer("table.flowcache_get_hit_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			v, _ := fc.Get(fkey(flows[int64(i)%nf]), 1)
			sink += v
		}
		return n
	}))
	var novel int64 = coldArg3Base
	res.setLayer("table.flowcache_miss_put_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			f := flows[int64(i)%nf]
			f.arg3 = novel
			novel++
			if _, ok := fc.Get(fkey(f), 1); !ok {
				fc.Put(fkey(f), 1, f.key)
			}
		}
		return n
	}))
	cs := table.NewCtxStore(8, 4096) // rmtprefetch's history capacity
	res.setLayer("table.ctx_histpush_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			cs.HistPush(56, int64(i))
		}
		return n
	}))
	var feats [8]int64 // rmtprefetch's feature width
	res.setLayer("table.ctx_hist_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			sink += int64(cs.Hist(56, feats[:]))
		}
		return n
	}))

	// vm / aot: the engines on the admitted fixture program, outside Fire.
	var admitted *isa.Program
	var vcfg verifier.Config
	for _, e := range k.VerifierCorpus() {
		if e.Prog.Name == "shardscale_pure" {
			admitted, vcfg = e.Prog, e.Cfg
		}
	}
	if admitted == nil {
		return fmt.Errorf("bench: fixture program missing from the verifier corpus")
	}
	mat, err := k.Matrix(hotMatrixID)
	if err != nil {
		return err
	}
	env := &benchEnv{m: mat}
	interp, err := vm.NewInterpreter(admitted)
	if err != nil {
		return err
	}
	jit, err := vm.Compile(env, admitted)
	if err != nil {
		return err
	}
	native, ok := aot.Lookup(aot.Hash(admitted))
	if !ok {
		return fmt.Errorf("bench: fixture program's hash is not in the AOT registry")
	}
	st := vm.NewState()
	runEngine := func(e vm.Engine) func() int {
		return func() int {
			for i := 0; i < n; i++ {
				f := flows[int64(i)%nf]
				v, _ := e.Run(env, st, f.key, f.arg2, f.arg3)
				sink += v
			}
			return n
		}
	}
	res.setLayer("vm.interp_run_ns", isolate(runEngine(interp)))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res.setLayer("vm.jit_run_ns", isolate(runEngine(jit)))
	runtime.ReadMemStats(&ms1)
	res.setLayer("vm.jit_allocs_per_run", float64(ms1.Mallocs-ms0.Mallocs)/float64(n*isolateReps))
	var scratch aot.Scratch
	res.setLayer("aot.run_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			f := flows[int64(i)%nf]
			v, _, _ := native(env, &scratch, f.key, f.arg2, f.arg3)
			sink += v
		}
		return n
	}))

	// Admission pipeline: assemble → verify → compile, and the whole of
	// Kernel.InstallProgram around them.
	admitN := cfg.scaled(300)
	raw, err := hotProgram("isolated", experiments.HotPathHook, hotMatrixID, 7)
	if err != nil {
		return err
	}
	asm := hotSource(hotMatrixID, 7)
	res.setLayer("isa.assemble_us", isolate(func() int {
		for i := 0; i < admitN; i++ {
			insns, _ := isa.Assemble(asm)
			sink += int64(len(insns))
		}
		return admitN
	})/1e3)
	res.setLayer("verifier.verify_us", isolate(func() int {
		for i := 0; i < admitN; i++ {
			rep, _ := verifier.Verify(raw, vcfg)
			sink += rep.MaxSteps
		}
		return admitN
	})/1e3)
	res.setLayer("vm.compile_us", isolate(func() int {
		for i := 0; i < admitN; i++ {
			if j, _ := vm.Compile(env, admitted); j != nil {
				sink++
			}
		}
		return admitN
	})/1e3)
	var installs []float64
	for i := 0; i < admitN; i++ {
		p, err := hotProgram(fmt.Sprintf("install_%d", i), experiments.HotPathHook, hotMatrixID, int64(i)+1)
		if err != nil {
			return err
		}
		t0 := time.Now()
		id, _, err := k.InstallProgram(p)
		installs = append(installs, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		// Removed again outside the timing, so every install publishes a
		// route snapshot of the same size.
		if err := k.RemoveProgram(id); err != nil {
			return err
		}
	}
	res.setLayer("core.install_program_us", fastDecile(installs, false))

	// telemetry: the striped counters every fire touches.
	ctr := telemetry.NewShardedCounter(32)
	res.setLayer("telemetry.sharded_inc_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			ctr.Inc(i & 31)
		}
		return n
	}))
	hist := telemetry.NewShardedHistogram(32)
	res.setLayer("telemetry.hist_observe_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			hist.Observe(i&31, 8)
		}
		return n
	}))
	sink += ctr.Load() + hist.Count()

	// qos: one admission verdict. No end-to-end workload fires through a
	// tenant yet; only core.delta.tenant_admit_ns shows this cost in a fire.
	ctl := qos.NewController(qos.Config{CapacityPerSec: 1_000_000, WindowNs: 1_000_000}, 0)
	tenants := []qos.TenantSpec{
		{Name: "g1", Class: qos.Guaranteed, RatePerSec: 400_000, Burst: 1000, Weight: 4},
		{Name: "g2", Class: qos.Guaranteed, RatePerSec: 200_000, Burst: 500, Weight: 2},
		{Name: "bu", Class: qos.Burstable, RatePerSec: 200_000, Burst: 500, Weight: 2},
		{Name: "be", Class: qos.BestEffort, RatePerSec: 100_000, Burst: 250, Weight: 1},
	}
	for _, spec := range tenants {
		ctl.SetTenant(spec, 0)
	}
	var now int64
	res.setLayer("qos.admit_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			now += 1000
			sink += int64(ctl.Admit(tenants[i%len(tenants)].Name, now))
		}
		return n
	}))

	if err := walCalls(cfg, res); err != nil {
		return err
	}
	return dtCalls(cfg, res)
}

// walCalls measures the log on the benchmark's temp filesystem. The sync
// figure is that filesystem's fsync — in this sandbox a tmp filesystem, not
// a disk — and is reported for completeness, not as a device number.
func walCalls(cfg runConfig, res *result) error {
	rec := func(i int) *wal.Record {
		return &wal.Record{
			Kind: wal.KindUpdateAction, Table: churnTable, Key: uint64(i % experiments.HotPathKeys),
			Action: &wal.Action{Kind: uint8(table.ActionProgram), ProgID: 1},
		}
	}
	appendUs := func(opts wal.Options, n int) (float64, string, error) {
		dir, err := os.MkdirTemp(cfg.tmpDir, "rmtk-bench-wal-*")
		if err != nil {
			return 0, "", err
		}
		l, err := wal.Open(dir, opts)
		if err != nil {
			os.RemoveAll(dir)
			return 0, "", err
		}
		var aerr error
		us := isolate(func() int {
			for i := 0; i < n; i++ {
				if _, err := l.Append(rec(i)); err != nil {
					aerr = err
				}
			}
			return n
		}) / 1e3
		if err := l.Close(); err != nil && aerr == nil {
			aerr = err
		}
		return us, dir, aerr
	}

	us, dir, err := appendUs(wal.Options{NoSync: true}, cfg.scaled(5000))
	defer os.RemoveAll(dir)
	if err != nil {
		return fmt.Errorf("bench: wal append: %w", err)
	}
	res.setLayer("wal.append_nosync_us", us)

	var scanned int64
	scanNs := isolate(func() int {
		sc, err := wal.Scan(dir)
		if err == nil {
			scanned = sc.ValidBytes
		}
		return 1
	})
	if scanned == 0 {
		return fmt.Errorf("bench: wal scan read nothing from %s", dir)
	}
	res.setLayer("wal.scan_mb_per_s", float64(scanned)/(1<<20)/(scanNs/1e9))

	us, sdir, err := appendUs(wal.Options{}, cfg.scaled(50))
	defer os.RemoveAll(sdir)
	if err != nil {
		return fmt.Errorf("bench: wal sync append: %w", err)
	}
	res.setLayer("wal.append_sync_us", us)
	return nil
}

// dtCalls measures tree induction on a window of rmtprefetch's size and
// shape — the last 4096 clamped page deltas of the video trace, 8-wide
// feature rows — with rmtprefetch's tree configuration, and one prediction.
func dtCalls(cfg runConfig, res *result) error {
	const (
		histCap = 4096
		width   = 8
		clamp   = 1 << 17
	)
	trace := experiments.VideoTrace(cfg.seed)
	if len(trace) > cfg.scaled(histCap)+1 {
		trace = trace[:cfg.scaled(histCap)+1]
	}
	if len(trace) < width+3 {
		return fmt.Errorf("bench: video trace too short for a training window")
	}
	deltas := make([]int64, 0, len(trace))
	for i := 1; i < len(trace); i++ {
		d := trace[i].Page - trace[i-1].Page
		if d > clamp {
			d = clamp
		}
		if d < -clamp {
			d = -clamp
		}
		deltas = append(deltas, d)
	}
	var X [][]int64
	var y []int64
	for i := width; i < len(deltas); i++ {
		X = append(X, deltas[i-width:i])
		y = append(y, deltas[i])
	}
	tcfg := dt.Config{MaxDepth: 12, MinSamples: 2, MaxThresholds: 48}
	var tree *dt.Tree
	var terr error
	ms := isolate(func() int {
		tree, terr = dt.Train(X, y, tcfg)
		return 1
	}) / 1e6
	if terr != nil {
		return fmt.Errorf("bench: dt.Train: %w", terr)
	}
	res.setLayer("ml.dt_train_ms", ms)
	n := cfg.scaled(200_000)
	res.setLayer("ml.dt_predict_ns", isolate(func() int {
		for i := 0; i < n; i++ {
			sink += tree.Predict(X[i%len(X)])
		}
		return n
	}))
	return nil
}

// layerMetrics runs the ledger and the isolated calls and records them. A
// layer that cannot be set up is a broken benchmark, not a missing number, so
// the failure is recorded on the result and fails the run's correctness.
func layerMetrics(cfg runConfig, res *result) {
	flows := genFlows(cfg.seed)
	ns, err := runLedger(cfg, flows)
	if err == nil {
		ledgerMetrics(res, ns)
		err = isolatedCalls(cfg, res, flows)
	}
	if err != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "per-layer measurement failed: "+err.Error())
	}
}
